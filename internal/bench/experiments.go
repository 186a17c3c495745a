package bench

import (
	"crypto/sha1"
	"fmt"
	"io"
	"time"

	"piper"
	"piper/internal/dag"
	"piper/internal/dedup"
	"piper/internal/ferret"
	"piper/internal/vidsim"
	"piper/internal/workload"
)

// SizeSpec scales experiments; Small keeps tests fast, Native approximates
// the paper's native-input workloads on a laptop-class machine.
type SizeSpec struct {
	FerretCorpus, FerretQueries, FerretImgW, FerretImgH int
	DedupBytes                                          int
	X264W, X264H, X264Frames                            int
	PipeFibN                                            int
	Reps                                                int
}

// Small is the CI-scale size.
func Small() SizeSpec {
	return SizeSpec{
		FerretCorpus: 200, FerretQueries: 80, FerretImgW: 32, FerretImgH: 32,
		DedupBytes: 1 << 20,
		X264W:      128, X264H: 64, X264Frames: 48,
		PipeFibN: 3000,
		Reps:     1,
	}
}

// Native is the full-scale size used for EXPERIMENTS.md.
func Native() SizeSpec {
	return SizeSpec{
		FerretCorpus: 1200, FerretQueries: 700, FerretImgW: 64, FerretImgH: 64,
		DedupBytes: 24 << 20,
		X264W:      320, X264H: 176, X264Frames: 120,
		PipeFibN: 12000,
		Reps:     3,
	}
}

// Fig6Ferret reproduces the ferret table: processing time, speedup over
// serial, and scalability for Cilk-P (piper), Pthreads (bind-to-stage,
// oversubscription Q=P), and TBB (token pipeline), with K = 10P.
func Fig6Ferret(w io.Writer, ps []int, sz SizeSpec) *Table {
	c := ferret.BuildCorpus(sz.FerretCorpus, sz.FerretImgW, sz.FerretImgH)
	qs := ferret.QuerySet{Offset: 1 << 20, N: sz.FerretQueries, TopK: 10}

	ts := bestOf(sz.Reps, func() { c.RunSerial(qs) })
	run := func(sys string, p int) time.Duration {
		switch sys {
		case "piper":
			eng := piper.NewEngine(piper.Workers(p))
			defer eng.Close()
			return bestOf(sz.Reps, func() { c.RunPiper(eng, 10*p, qs) })
		case "pthreads":
			return bestOf(sz.Reps, func() { c.RunBindStage(p, 10*p, qs) })
		default:
			return bestOf(sz.Reps, func() { c.RunTBB(p, 10*p, qs) })
		}
	}
	t1 := map[string]time.Duration{}
	for _, sys := range []string{"piper", "pthreads", "tbb"} {
		t1[sys] = run(sys, 1)
	}

	tbl := &Table{
		Title: fmt.Sprintf("Figure 6: ferret (corpus=%d queries=%d, K=10P), TS=%ss",
			sz.FerretCorpus, sz.FerretQueries, secs(ts)),
		Header: []string{"P",
			"CilkP-T", "Pthr-T", "TBB-T",
			"CilkP-Sp", "Pthr-Sp", "TBB-Sp",
			"CilkP-Sc", "Pthr-Sc", "TBB-Sc"},
	}
	for _, p := range ps {
		tp := map[string]time.Duration{}
		for _, sys := range []string{"piper", "pthreads", "tbb"} {
			if p == 1 {
				tp[sys] = t1[sys]
			} else {
				tp[sys] = run(sys, p)
			}
		}
		tbl.AddRow(fmt.Sprint(p),
			secs(tp["piper"]), secs(tp["pthreads"]), secs(tp["tbb"]),
			ratio(ts, tp["piper"]), ratio(ts, tp["pthreads"]), ratio(ts, tp["tbb"]),
			ratio(t1["piper"], tp["piper"]), ratio(t1["pthreads"], tp["pthreads"]), ratio(t1["tbb"], tp["tbb"]))
	}
	tbl.Notes = append(tbl.Notes,
		"Sp = TS/TP (speedup over serial); Sc = T1/TP (self-scalability)")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}

// Fig7Dedup reproduces the dedup table with K = 4P, plus the measured dag
// parallelism that explains the plateau (the paper's Cilkview reported
// 7.4 on the native input).
func Fig7Dedup(w io.Writer, ps []int, sz SizeSpec) *Table {
	data := workload.TextStream(1234, sz.DedupBytes, 4096, 0.35)
	sink := func(f func(io.Writer)) time.Duration {
		return bestOf(sz.Reps, func() { f(io.Discard) })
	}
	ts := sink(func(out io.Writer) { _ = dedup.CompressSerial(data, out) })

	run := func(sys string, p int) time.Duration {
		switch sys {
		case "piper":
			eng := piper.NewEngine(piper.Workers(p))
			defer eng.Close()
			return sink(func(out io.Writer) { _ = dedup.CompressPiper(eng, 4*p, data, out) })
		case "pthreads":
			return sink(func(out io.Writer) { _ = dedup.CompressBindStage(data, p, 4*p, out) })
		default:
			return sink(func(out io.Writer) { _ = dedup.CompressTBB(data, p, 4*p, out) })
		}
	}
	t1 := map[string]time.Duration{}
	for _, sys := range []string{"piper", "pthreads", "tbb"} {
		t1[sys] = run(sys, 1)
	}

	tbl := &Table{
		Title: fmt.Sprintf("Figure 7: dedup (%d MiB, K=4P), TS=%ss",
			sz.DedupBytes>>20, secs(ts)),
		Header: []string{"P",
			"CilkP-T", "Pthr-T", "TBB-T",
			"CilkP-Sp", "Pthr-Sp", "TBB-Sp",
			"CilkP-Sc", "Pthr-Sc", "TBB-Sc"},
	}
	for _, p := range ps {
		tp := map[string]time.Duration{}
		for _, sys := range []string{"piper", "pthreads", "tbb"} {
			if p == 1 {
				tp[sys] = t1[sys]
			} else {
				tp[sys] = run(sys, p)
			}
		}
		tbl.AddRow(fmt.Sprint(p),
			secs(tp["piper"]), secs(tp["pthreads"]), secs(tp["tbb"]),
			ratio(ts, tp["piper"]), ratio(ts, tp["pthreads"]), ratio(ts, tp["tbb"]),
			ratio(t1["piper"], tp["piper"]), ratio(t1["pthreads"], tp["pthreads"]), ratio(t1["tbb"], tp["tbb"]))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("measured dag parallelism of this input: %.1f (paper's Cilkview reported 7.4 on native)",
			dedupMeasuredParallelism(data)),
		fmt.Sprintf("stage-weight model estimate: %.1f", dedupParallelism(data)))
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}

// dedupMeasuredParallelism profiles the actual dedup pipe_while from its
// serial elision — the direct Cilkview analogue.
func dedupMeasuredParallelism(data []byte) float64 {
	// The profile runs on the calling goroutine whatever the worker
	// count; one worker keeps the idle engine's footprint small.
	eng := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	chunker := dedup.NewChunker(data)
	aw := dedup.NewWriter(io.Discard)
	table := newDedupProfileTable()
	var seq int64
	rep := piper.ProfilePipe(eng, 64, func() ([]byte, bool) {
		c := chunker.Next()
		return c, c != nil
	}, func(it *piper.Iter, chunk []byte) {
		rec := &dedup.Record{Seq: seq, RawLen: len(chunk)}
		seq++
		it.Wait(1)
		table.classify(rec, chunk)
		it.Continue(2)
		if !rec.Dup {
			rec.Compressed = dedup.Compress(chunk)
		}
		it.Wait(3)
		aw.WriteRecord(rec)
	})
	return rep.Parallelism()
}

// dedupProfileTable mirrors the serial dedup stage's duplicate table for
// the profiling run.
type dedupProfileTable struct {
	m    map[[sha1.Size]byte]int64
	next int64
}

func newDedupProfileTable() *dedupProfileTable {
	return &dedupProfileTable{m: make(map[[sha1.Size]byte]int64)}
}

func (d *dedupProfileTable) classify(rec *dedup.Record, chunk []byte) {
	rec.Sum = sha1.Sum(chunk)
	if idx, ok := d.m[rec.Sum]; ok {
		rec.Dup = true
		rec.RefIndex = idx
		return
	}
	d.m[rec.Sum] = d.next
	rec.RefIndex = d.next
	d.next++
}

// dedupParallelism estimates the SSPS dag parallelism from measured
// per-stage costs on a sample of the input (the Cilkview analogue).
func dedupParallelism(data []byte) float64 {
	chunks := dedup.ChunkAll(data)
	if len(chunks) == 0 {
		return 1
	}
	sample := chunks
	if len(sample) > 64 {
		sample = sample[:64]
	}
	// Measure stage weights in microseconds on the sample.
	tSha := timeIt(func() {
		for _, c := range sample {
			shaSinkVar = sha1.Sum(c)
		}
	})
	tComp := timeIt(func() {
		for _, c := range sample {
			compSink = dedup.Compress(c)
		}
	})
	wSha := tSha.Microseconds()/int64(len(sample)) + 1
	wComp := tComp.Microseconds()/int64(len(sample)) + 1
	p := dag.SSPS(len(chunks), 1, wSha, wComp, 1)
	return p.Parallelism()
}

// Sinks defeat dead-code elimination in the sampling loops.
var (
	shaSinkVar [sha1.Size]byte
	compSink   []byte
)

// Fig8X264 reproduces the x264 table (Cilk-P vs Pthreads, K = 4P).
func Fig8X264(w io.Writer, ps []int, sz SizeSpec) *Table {
	video := vidsim.Generate(777, sz.X264W, sz.X264H, sz.X264Frames, sz.X264Frames/3)
	cfg := vidsim.DefaultConfig()
	ts := bestOf(sz.Reps, func() { vidsim.EncodeSerial(video, cfg) })

	run := func(sys string, p int) time.Duration {
		if sys == "piper" {
			eng := piper.NewEngine(piper.Workers(p))
			defer eng.Close()
			return bestOf(sz.Reps, func() { vidsim.EncodePiper(eng, 4*p, video, cfg) })
		}
		return bestOf(sz.Reps, func() { vidsim.EncodeThreads(video, cfg, p) })
	}
	t1 := map[string]time.Duration{"piper": run("piper", 1), "pthreads": run("pthreads", 1)}

	tbl := &Table{
		Title: fmt.Sprintf("Figure 8: x264 (%dx%d, %d frames, K=4P), TS=%ss",
			sz.X264W, sz.X264H, sz.X264Frames, secs(ts)),
		Header: []string{"P", "CilkP-T", "Pthr-T", "CilkP-Sp", "Pthr-Sp", "CilkP-Sc", "Pthr-Sc"},
	}
	for _, p := range ps {
		tp := map[string]time.Duration{}
		for _, sys := range []string{"piper", "pthreads"} {
			if p == 1 {
				tp[sys] = t1[sys]
			} else {
				tp[sys] = run(sys, p)
			}
		}
		tbl.AddRow(fmt.Sprint(p),
			secs(tp["piper"]), secs(tp["pthreads"]),
			ratio(ts, tp["piper"]), ratio(ts, tp["pthreads"]),
			ratio(t1["piper"], tp["piper"]), ratio(t1["pthreads"], tp["pthreads"]))
	}
	tbl.Notes = append(tbl.Notes,
		"TBB column absent by design: construct-and-run cannot express x264 (Section 10)")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}
