package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"piper"
	"piper/internal/lz"
	"piper/internal/workload"
)

// lz-stream: lz.StreamCompress in dense mode. Kernel-bound (the
// suffix-array build is the span), nested pipelines, and the arena used
// the opposite way to dedup: a few multi-MiB regions under a MemLimit
// instead of many small ones.
const lzBytes = 4 << 20

type lzStream struct {
	eng   *piper.Engine
	size  int
	seed  uint64
	raw   []byte // what the reader produces, for the round trip
	ref   []byte // StreamCompressSerial's output
	buf   bytes.Buffer
	stats lz.StreamStats
}

func (w *lzStream) reader() io.Reader {
	return workload.StreamReader(w.seed, int64(w.size), dedupBlock, dedupDupRatio)
}

func (w *lzStream) opts() lz.StreamOptions {
	return lz.StreamOptions{Mode: lz.ModeDense, Stats: &w.stats}
}

func (w *lzStream) Setup(seed uint64) error {
	if w.size == 0 {
		w.size = lzBytes
	}
	w.seed = seed
	raw, err := io.ReadAll(w.reader())
	if err != nil {
		return err
	}
	w.raw, w.ref = raw, nil
	w.eng = piper.NewEngine(piper.Workers(nproc()))
	w.buf.Grow(w.size)
	w.buf.Reset()
	_, err = lz.StreamCompress(w.eng, &w.buf, w.reader(), w.opts()) // warm-up
	return err
}

func (w *lzStream) Close()                { w.eng.Close() }
func (w *lzStream) Engine() *piper.Engine { return w.eng }
func (w *lzStream) Ops() float64          { return float64(w.size) / (1 << 20) }

func (w *lzStream) Serial() time.Duration {
	var buf bytes.Buffer
	buf.Grow(w.size)
	t0 := time.Now()
	_, err := lz.StreamCompressSerial(&buf, w.reader(), lz.StreamOptions{Mode: lz.ModeDense})
	d := time.Since(t0)
	if w.ref == nil && err == nil {
		w.ref = buf.Bytes()
	}
	return d
}

func (w *lzStream) check(err error) error {
	if err != nil {
		return err
	}
	if !bytes.Equal(w.buf.Bytes(), w.ref) {
		return fmt.Errorf("stream differs from StreamCompressSerial's (%d vs %d bytes)", w.buf.Len(), len(w.ref))
	}
	var back bytes.Buffer
	back.Grow(len(w.raw))
	if _, err := lz.StreamDecompress(&back, bytes.NewReader(w.buf.Bytes())); err != nil {
		return fmt.Errorf("StreamDecompress: %w", err)
	}
	if !bytes.Equal(back.Bytes(), w.raw) {
		return fmt.Errorf("StreamDecompress output differs from the input")
	}
	return nil
}

func (w *lzStream) Run() (time.Duration, error) {
	w.buf.Reset()
	t0 := time.Now()
	_, err := lz.StreamCompress(w.eng, &w.buf, w.reader(), w.opts())
	d := time.Since(t0)
	return d, w.check(err)
}

// Traced keeps spans coarse: the bodies belong to lz.
func (w *lzStream) Traced(tr *tracer, run int) (time.Duration, []*stageTrace, error) {
	w.buf.Reset()
	start := tr.now()
	t0 := time.Now()
	_, err := lz.StreamCompress(w.eng, &w.buf, w.reader(), w.opts())
	d := time.Since(t0)
	id := tr.add("lz.run", run, -1, start, tr.now())
	tr.add("lz.StreamCompress", run, id, start, start+int64(d))
	tr.timed("lz.verify", run, id, func() { err = w.check(err) })
	return d, nil, err
}

func (w *lzStream) Layer(m metrics, res *result) {
	m.set("core.max_live_iters", 0, 0) // lz does not hand out its pipeline's report
	// Work and span through the package's own profile hook, on one
	// worker so that node timing is not inflated by contention.
	one := piper.NewEngine(piper.Workers(1))
	defer one.Close()
	profileMetrics(m, res, func() (rep piper.PipelineReport) {
		if _, err := lz.StreamCompress(one, io.Discard, w.reader(), lz.StreamOptions{Mode: lz.ModeDense, Profile: &rep}); err != nil {
			res.warnf("profiling lz: %v", err)
		}
		return rep
	}, m["run_p50_ms"].Value)
	res.notef("lz profile runs with SerialBlocks, so the span is a chunk's, not a block's")
	m.set("trace.twin_ratio", 1, 0)

	// The workload's own stream statistics replace the kernel sample's.
	m.set("lz.ratio", float64(w.stats.RawBytes)/float64(w.stats.CompressedBytes), 1)
	m.set("lz.peak_live_arena_mb", float64(w.stats.PeakLiveArenaBytes)/(1<<20), 1)
	m.set("lz.derived_throttle", float64(w.stats.DerivedThrottle), 1)
}

// Inputs keeps the sample: the dense factorizer is too slow to time over
// the whole input again, and the sample is drawn the same way.
func (w *lzStream) Inputs(in *kernelInputs) {}
