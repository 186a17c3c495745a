package main

import (
	"bytes"
	"crypto/sha1"
	"io"
	"math/big"
	"time"

	"piper"
	"piper/internal/dedup"
	"piper/internal/lz"
	"piper/internal/pipefib"
	"piper/internal/vidsim"
)

// Application kernels, timed serially and in isolation, and the baseline
// executors run on the same input with the same check. Each workload
// hands in its own input for its own application; the others get a
// smaller sample drawn from the same seed, so every traced run measures
// every kernel.
const (
	sampleTextBytes = 1 << 20
	sampleFrames    = 24
	kernelReps      = 3
)

// kernelInputs is what the kernels run on.
type kernelInputs struct {
	text  []byte        // dedup and lz
	video *vidsim.Video // vidsim
	fibN  int
}

func sampleInputs(seed uint64, quick bool) *kernelInputs {
	in := &kernelInputs{
		text:  dedupInput(seed, sampleTextBytes),
		video: vidsim.Generate(seed, x264W, x264H, sampleFrames, sampleFrames/3),
		fibN:  floorFibN,
	}
	if quick {
		in.text = in.text[:128<<10]
		in.video.Frames = in.video.Frames[:6]
		in.fibN = 200
	}
	return in
}

func msPerMiB(d time.Duration, bytes int) float64 {
	return float64(d) / 1e6 / (float64(bytes) / (1 << 20))
}

// timeMedian returns the median wall time of reps calls of f.
func timeMedian(reps int, f func()) time.Duration {
	return time.Duration(medianOf(reps, func() float64 { return float64(timed(f)) }))
}

func dedupKernels(m metrics, res *result, data []byte) {
	n := len(data)
	var chunks [][]byte
	chunk := timeMedian(kernelReps, func() { chunks = dedup.ChunkAll(data) })

	recs := make([]dedup.Record, len(chunks))
	var dups int
	classify := timeMedian(kernelReps, func() {
		table := make(map[[sha1.Size]byte]int64, len(chunks))
		var next int64
		dups = 0
		for i, c := range chunks {
			r := &recs[i]
			*r = dedup.Record{Seq: int64(i), RawLen: len(c), Sum: sha1.Sum(c)}
			if idx, ok := table[r.Sum]; ok {
				r.Dup, r.RefIndex = true, idx
				dups++
			} else {
				table[r.Sum] = next
				r.RefIndex = next
				next++
			}
		}
	})

	compress := timeMedian(kernelReps, func() {
		for i, c := range chunks {
			if !recs[i].Dup {
				recs[i].Compressed = dedup.CompressInto(recs[i].Compressed[:0], c)
			}
		}
	})

	var archive bytes.Buffer
	archive.Grow(n)
	write := timeMedian(kernelReps, func() {
		archive.Reset()
		aw := dedup.NewWriter(&archive)
		for i := range recs {
			aw.WriteRecord(&recs[i])
		}
		if err := aw.Close(); err != nil {
			res.warnf("dedup kernel: writing the archive: %v", err)
		}
	})

	restore := timeMedian(kernelReps, func() {
		back, err := dedup.Restore(archive.Bytes())
		if err != nil || !bytes.Equal(back, data) {
			res.Attempted++
			res.fail("dedup kernel: Restore does not give the input back (err %v)", err)
		}
	})

	m.set("dedup.chunk_ms_per_mib", msPerMiB(chunk, n), kernelReps)
	m.set("dedup.classify_ms_per_mib", msPerMiB(classify, n), kernelReps)
	m.set("dedup.compress_ms_per_mib", msPerMiB(compress, n), kernelReps)
	m.set("dedup.write_ms_per_mib", msPerMiB(write, n), kernelReps)
	m.set("dedup.restore_ms_per_mib", msPerMiB(restore, n), kernelReps)
	m.set("dedup.serial_stage_share", float64(chunk+classify+write)/float64(chunk+classify+compress+write), kernelReps)
	m.set("dedup.dup_share", float64(dups)/float64(len(chunks)), len(chunks))
}

func lzKernels(m metrics, res *result, data []byte) {
	n := len(data)
	factorize := timeMedian(kernelReps, func() {
		for off := 0; off < n; off += lz.DefaultStreamBlockSize {
			lz.Factorize(data[off:min(off+lz.DefaultStreamBlockSize, n)])
		}
	})
	m.set("lz.factorize_ms_per_mib", msPerMiB(factorize, n), kernelReps)

	eng := piper.NewEngine(piper.Workers(nproc()))
	defer eng.Close()
	var st lz.StreamStats
	var stream bytes.Buffer
	if _, err := lz.StreamCompress(eng, &stream, bytes.NewReader(data), lz.StreamOptions{Mode: lz.ModeDense, Stats: &st}); err != nil {
		res.warnf("lz kernel: StreamCompress: %v", err)
	}
	decompress := timeMedian(kernelReps, func() {
		if _, err := lz.StreamDecompress(io.Discard, bytes.NewReader(stream.Bytes())); err != nil {
			res.Attempted++
			res.fail("lz kernel: StreamDecompress: %v", err)
		}
	})
	m.set("lz.decompress_ms_per_mib", msPerMiB(decompress, n), kernelReps)
	m.set("lz.ratio", float64(st.RawBytes)/float64(max(st.CompressedBytes, 1)), 1)
	m.set("lz.peak_live_arena_mb", float64(st.PeakLiveArenaBytes)/(1<<20), 1)
	m.set("lz.derived_throttle", float64(st.DerivedThrottle), 1)
}

func vidsimKernels(m metrics, res *result, v *vidsim.Video) {
	cfg := vidsim.DefaultConfig()
	e := vidsim.NewEncoder(v, cfg)
	rows := v.Rows()
	// Even frames as a chain of references (the first intra, the rest
	// predicted from the one before), odd frames as B-frames between
	// them: every row and every B-frame timed on its own.
	var rowT, bT time.Duration
	var nRows, nB int
	var prev *vidsim.Recon
	for fi := 0; fi < len(v.Frames); fi += 2 {
		typ := vidsim.TypeP
		if prev == nil {
			typ = vidsim.TypeI
		}
		rc := e.NewRecon(fi)
		t0 := time.Now()
		for r := 0; r < rows; r++ {
			e.EncodeRow(fi, typ, r, rc, prev)
		}
		rowT += time.Since(t0)
		nRows += rows
		if prev != nil {
			t0 = time.Now()
			e.EncodeB(fi-1, prev, rc)
			bT += time.Since(t0)
			nB++
		}
		prev = rc
	}
	m.set("vidsim.row_us", float64(rowT)/1e3/float64(nRows), nRows)
	m.set("vidsim.bframe_us", float64(bT)/1e3/float64(max(nB, 1)), nB)

	ref := vidsim.EncodeSerial(v, cfg)
	intra := 0
	for _, st := range ref.Stats {
		if st.Type == vidsim.TypeI {
			intra++
		}
	}
	m.set("vidsim.i_frame_share", float64(intra)/float64(len(ref.Stats)), len(ref.Stats))

	// The bind-to-stage baseline against piper, interleaved, same check.
	eng := piper.NewEngine(piper.Workers(nproc()))
	defer eng.Close()
	var pip, thr durations
	var violations int64
	for i := 0; i < 2*kernelReps+1; i++ {
		t0 := time.Now()
		a := vidsim.EncodePiper(eng, 0, v, cfg)
		pip = append(pip, time.Since(t0))
		t0 = time.Now()
		b := vidsim.EncodeThreads(v, cfg, nproc())
		thr = append(thr, time.Since(t0))
		violations += a.Violations
		res.Attempted += 2
		if a.Checksum != ref.Checksum {
			res.fail("vidsim kernel: EncodePiper checksum differs from EncodeSerial's")
		}
		if b.Checksum != ref.Checksum {
			res.fail("vidsim kernel: EncodeThreads checksum differs from EncodeSerial's")
		}
	}
	m.set("vidsim.violations", float64(violations), len(pip))
	m.set("bindstage.x264_ratio", thr.medianMs()/pip.medianMs(), len(pip))
	res.notef("bindstage.x264_ratio base: EncodePiper median %.3f ms over %d frames", pip.medianMs(), len(v.Frames))
}

func dedupBaselines(m metrics, res *result, data []byte) {
	eng := piper.NewEngine(piper.Workers(nproc()))
	defer eng.Close()
	var ref bytes.Buffer
	if err := dedup.CompressSerial(data, &ref); err != nil {
		res.warnf("dedup baselines: CompressSerial: %v", err)
	}
	p := nproc()
	var buf bytes.Buffer
	checked := func(name string, f func() error) time.Duration {
		buf.Reset()
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		res.Attempted++
		if err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			res.fail("dedup baselines: %s archive differs from CompressSerial's (err %v)", name, err)
		}
		return d
	}
	var pip, tbb, bind durations
	for i := 0; i < 2*kernelReps+1; i++ {
		pip = append(pip, checked("CompressPiper", func() error { return dedup.CompressPiper(eng, 0, data, &buf) }))
		tbb = append(tbb, checked("CompressTBB", func() error { return dedup.CompressTBB(data, p, 4*p, &buf) }))
		bind = append(bind, checked("CompressBindStage", func() error { return dedup.CompressBindStage(data, p, 4*p, &buf) }))
	}
	m.set("tbbpipe.dedup_ratio", tbb.medianMs()/pip.medianMs(), len(pip))
	m.set("bindstage.dedup_ratio", bind.medianMs()/pip.medianMs(), len(pip))
	res.notef("dedup baseline ratios base: CompressPiper median %.3f ms over %.1f MiB (tbbpipe %.3f ms, bindstage %.3f ms)",
		pip.medianMs(), float64(len(data))/(1<<20), tbb.medianMs(), bind.medianMs())
}

func pipefibKernels(m metrics, res *result, n int) {
	eng := piper.NewEngine(piper.Workers(nproc()))
	one := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	defer one.Close()
	want := pipefib.Reference(n)
	check := func(name string, got *big.Int) {
		res.Attempted++
		if got.Cmp(want) != 0 {
			res.fail("pipefib kernel: %s(%d) differs from Reference", name, n)
		}
	}
	fine := timeMedian(probeReps, func() { check("Fine", pipefib.Fine(eng, 0, n)) })
	t1 := timeMedian(probeReps, func() { check("Fine on one worker", pipefib.Fine(one, 0, n)) })
	ts := timeMedian(probeReps, func() { check("SerialFine", pipefib.SerialFine(n)) })
	m.set("pipefib.fine_ms", float64(fine)/1e6, probeReps)
	m.set("pipefib.t1_over_ts", float64(t1)/float64(ts), probeReps)
}

// layerProbes runs every probe and kernel.
func layerProbes(m metrics, res *result, in *kernelInputs, quick bool) {
	s := probeScale(1)
	if quick {
		s = 64
	}
	dequeProbes(m, s)
	arenaProbes(m, s)
	coreProbes(m, s)
	dedupKernels(m, res, in.text)
	dedupBaselines(m, res, in.text)
	lzKernels(m, res, in.text[:min(len(in.text), sampleTextBytes)])
	vidsimKernels(m, res, in.video)
	pipefibKernels(m, res, in.fibN)
}
