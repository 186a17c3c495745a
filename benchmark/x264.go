package main

import (
	"fmt"
	"time"

	"piper"
	"piper/internal/vidsim"
)

// x264-onthefly: the paper's Figure 2 pipeline, the case on-the-fly
// pipelining exists for. The same scheduler core as sched-floor, used the
// other way: Wait or Continue chosen per macroblock row from the data,
// stage numbers that grow per iteration, Iter.For inside a stage. Plans
// deopt, batches split, iterations promote and suspend on real cross
// edges, so it pays for the interpreter and coroutine tier that
// sched-floor bypasses.
const (
	x264W, x264H = 320, 176
	x264Frames   = 120
	x264SceneLen = x264Frames / 3
)

type x264 struct {
	eng    *piper.Engine
	frames int
	video  *vidsim.Video
	cfg    vidsim.Config
	ref    *vidsim.Result
}

func (w *x264) Setup(seed uint64) error {
	if w.frames == 0 {
		w.frames = x264Frames
	}
	w.video = vidsim.Generate(seed, x264W, x264H, w.frames, max(w.frames/3, 1))
	w.cfg = vidsim.DefaultConfig()
	w.eng = piper.NewEngine(piper.Workers(nproc()))
	w.ref = nil
	for i := 0; i < 2; i++ {
		vidsim.EncodePiper(w.eng, 0, w.video, w.cfg)
	}
	return nil
}

func (w *x264) Close()                { w.eng.Close() }
func (w *x264) Engine() *piper.Engine { return w.eng }
func (w *x264) Ops() float64          { return float64(w.frames) }

func (w *x264) Serial() time.Duration {
	t0 := time.Now()
	r := vidsim.EncodeSerial(w.video, w.cfg)
	d := time.Since(t0)
	if w.ref == nil {
		w.ref = r
	}
	return d
}

func (w *x264) check(r *vidsim.Result) error {
	if r.Checksum != w.ref.Checksum || r.TotalBits != w.ref.TotalBits {
		return fmt.Errorf("encode differs from EncodeSerial's: checksum %x vs %x", r.Checksum, w.ref.Checksum)
	}
	if r.Violations != 0 {
		return fmt.Errorf("%d dependency violations", r.Violations)
	}
	return nil
}

func (w *x264) Run() (time.Duration, error) {
	t0 := time.Now()
	r := vidsim.EncodePiper(w.eng, 0, w.video, w.cfg)
	d := time.Since(t0)
	return d, w.check(r)
}

// Traced keeps spans coarse: the bodies belong to vidsim.
func (w *x264) Traced(tr *tracer, run int) (time.Duration, []*stageTrace, error) {
	var r *vidsim.Result
	start := tr.now()
	t0 := time.Now()
	r = vidsim.EncodePiper(w.eng, 0, w.video, w.cfg)
	d := time.Since(t0)
	id := tr.add("x264.run", run, -1, start, tr.now())
	tr.add("vidsim.EncodePiper", run, id, start, start+int64(d))
	var err error
	tr.timed("x264.verify", run, id, func() { err = w.check(r) })
	return d, nil, err
}

func (w *x264) Layer(m metrics, res *result) {
	// vidsim exposes neither a report nor a profile hook for its
	// pipeline: the work is the serial elision's time, the span is not
	// measured.
	m.set("core.max_live_iters", 0, 0)
	m.set("core.work_ms", float64(nominal(w.Serial(), hostFactor()))/1e6, 1)
	m.set("core.span_ms", 0, 0)
	m.set("core.parallelism", 0, 0)
	m.set("core.brent_ratio", 0, 0)
	m.set("trace.twin_ratio", 1, 0)
}

func (w *x264) Inputs(in *kernelInputs) { in.video = w.video }
