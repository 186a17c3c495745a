package main

import (
	"fmt"
	"runtime"
	"time"

	"piper"
)

// batchWorkload is a workload whose user waits for one pipeline to run to
// completion: a run is one complete pipeline execution.
type batchWorkload interface {
	// Setup makes the inputs from the seed, starts the engine and runs the
	// warm-up rounds. It may be called again after Close.
	Setup(seed uint64) error
	Close()
	Engine() *piper.Engine
	// Ops is how many operations one run completes (see the README for
	// what an operation is on each workload).
	Ops() float64
	// Serial runs the serial elision once and returns its wall time. The
	// first call after Setup also records its output as the reference
	// every later run is checked against.
	Serial() time.Duration
	// Run executes the pipeline once and checks the output; the time
	// returned is that of the pipeline call alone.
	Run() (time.Duration, error)
	// Traced is Run with the benchmark's spans recorded into tr. It
	// returns the stage stamps of each pipeline whose bodies are the
	// benchmark's own; none where spans stay coarse.
	Traced(tr *tracer, run int) (time.Duration, []*stageTrace, error)
	// Inputs replaces the kernel sample with the workload's own input,
	// for the application this workload runs.
	Inputs(in *kernelInputs)
	// Layer adds the per-layer metrics only this workload can give.
	Layer(m metrics, res *result)
}

const (
	setupReps   = 3 // set-ups per run; setup_s is their median
	serialEvery = 4 // one serial-elision run per this many pipeline runs
	// batchTail is the percentile run_tail_ms reports on the batch
	// workloads: a 20 s window holds 40 runs of lz-stream and 100 to 170
	// of the others, and the 75th is the highest percentile of the ladder
	// that keeps ten beyond it on all four.
	batchTail = 0.75
)

// setUp performs the whole set-up setupReps times and leaves the last
// one standing. Set-up is everything outside the timed window: input
// generation, engine start, warm-up and the serial reference.
func setUp(w batchWorkload, seed uint64, reps int) (setupS float64, serial time.Duration, err error) {
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.Close()
		}
		d := timed(func() {
			if err = w.Setup(seed); err == nil {
				serial = nominal(w.Serial(), hostFactor())
			}
		})
		if err != nil {
			return 0, 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), serial, nil
}

// window runs the pipeline back to back for d, with a serial-elision run
// before every serialEvery-th one when interleave is set. Every run is
// timed beside a host-speed probe and returned in nominal-host time.
func window(w batchWorkload, d time.Duration, interleave bool, res *result) (runs, serials durations) {
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if interleave && i%serialEvery == 0 {
			f := hostFactor()
			serials = append(serials, nominal(w.Serial(), f))
		}
		f := hostFactor()
		dur, err := w.Run()
		dur = nominal(dur, f)
		res.Attempted++
		if err != nil {
			res.fail("run %d: %v", i, err)
		}
		runs = append(runs, dur)
	}
	return runs, serials
}

// endToEnd derives the end-to-end metrics from a window's samples.
func endToEnd(m metrics, res *result, ops float64, runs, serials durations, setupS float64) {
	ms := sortedCopy(runs.ms())
	n := len(ms)
	p50 := percentile(ms, 0.5)
	m.set("setup_s", setupS, setupReps)
	m.set("throughput_ops_s", ops*float64(n)/runs.sum().Seconds(), n)
	m.set("run_p50_ms", p50, n)
	m.set("run_tail_ms", percentile(ms, batchTail), n)
	m.set("speedup_vs_serial", serials.medianMs()/p50, len(serials))
	m.set("peak_rss_mb", peakRSSMiB(), 1)
	if b := beyond(n, batchTail); b < minBeyond {
		res.warnf("run_tail_ms (p%g) rests on %d runs with %d beyond it; the highest percentile with %d beyond is p%g",
			batchTail*100, n, b, minBeyond, supportedTail(n)*100)
	}
	res.notef("speedup_vs_serial base: serial median %.3f ms over %d runs", serials.medianMs(), len(serials))
}

// checkDrained verifies that an idle engine holds nothing: a leak counts
// as a failed operation.
func checkDrained(eng *piper.Engine, res *result) {
	s := eng.Stats()
	for d := time.Millisecond; d < time.Second && !drained(s); d *= 2 {
		time.Sleep(d) // gauges may trail the last completion by a worker step
		s = eng.Stats()
	}
	res.Attempted++
	if !drained(s) {
		res.fail("engine not drained: live iter frames %d, closure frames %d, pipelines %d, arena bytes %d, pending %d",
			s.LiveIterFrames, s.LiveClosureFrames, s.LivePipelines, s.LiveArenaBytes, s.PendingAdmitted)
	}
}

// profileMetrics runs an instrumented pipeline and records its measured
// work and span, and how the time the pipeline actually took (tookMs, at
// nproc workers) compares with the greedy-scheduler bound work/nproc +
// span. All three are in nominal-host time.
func profileMetrics(m metrics, res *result, profile func() piper.PipelineReport, tookMs float64) {
	factor := hostFactor()
	rep := profile()
	work, span := float64(rep.WorkNs)/1e6/factor, float64(rep.SpanNs)/1e6/factor
	m.set("core.work_ms", work, 1)
	m.set("core.span_ms", span, 1)
	m.set("core.parallelism", rep.Parallelism(), 1)
	brent := 0.0
	if bound := work/float64(nproc()) + span; bound > 0 {
		brent = tookMs / bound
	}
	m.set("core.brent_ratio", brent, 1)
	res.notef("core.brent_ratio base: %.3f ms taken over work %.3f ms / %d + span %.3f ms", tookMs, work, nproc(), span)
}

// memMetrics reports the allocator's and collector's work per run.
func memMetrics(m metrics, a, b *runtime.MemStats, runs int) {
	n := float64(max(runs, 1))
	m.set("runtime.allocs_per_run", float64(b.Mallocs-a.Mallocs)/n, runs)
	m.set("runtime.alloc_kb_per_run", float64(b.TotalAlloc-a.TotalAlloc)/1024/n, runs)
	m.set("runtime.gc_cycles_per_run", float64(b.NumGC-a.NumGC)/n, runs)
	m.set("runtime.gc_pause_ms_per_run", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6/n, runs)
}

func drained(s piper.Stats) bool {
	return s.LiveIterFrames == 0 && s.LiveClosureFrames == 0 && s.LivePipelines == 0 &&
		s.LiveArenaBytes == 0 && s.PendingAdmitted == 0
}

// runBatch measures one batch workload. With tracing off it spends the
// whole window on untraced runs; with tracing on it splits the time
// between an untraced reference window (counters), a traced window
// (spans) and the layer probes.
func runBatch(w batchWorkload, cfg config, res *result) error {
	reps := setupReps
	if cfg.trace {
		reps = 1 // the traced run does not report setup_s
	}
	setupS, serial0, err := setUp(w, cfg.seed, reps)
	if err != nil {
		return err
	}
	defer w.Close()
	m := res.Metrics

	if !cfg.trace {
		runs, serials := window(w, cfg.window, true, res)
		checkDrained(w.Engine(), res)
		endToEnd(m, res, w.Ops(), runs, serials, setupS)
		return nil
	}

	// Untraced reference window: the library's own pipeline, counted from
	// outside through the public snapshots.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := snapshot(w.Engine())
	runs, _ := window(w, cfg.window/5, false, res)
	c1 := snapshot(w.Engine())
	runtime.ReadMemStats(&ms1)
	checkDrained(w.Engine(), res)
	endToEnd(m, res, w.Ops(), runs, durations{serial0}, setupS)
	counterMetrics(m, c0, c1, float64(len(runs)))
	memMetrics(m, &ms0, &ms1, len(runs))
	m.set("arena.live_bytes_idle", float64(w.Engine().Arena().Stats().LiveBytes), 1)

	// Traced window.
	tr := newTracer()
	var traced durations
	var delay50, delay90 []float64 // per traced run
	var busy, wall int64
	deadline := time.Now().Add(min(cfg.window/3, 5*time.Second))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		f := hostFactor()
		d, sts, err := w.Traced(tr, i)
		d = nominal(d, f)
		res.Attempted++
		if err != nil {
			res.fail("traced run %d: %v", i, err)
		}
		traced = append(traced, d)
		var delays []float64
		for _, st := range sts {
			delays = append(delays, st.enableDelays()...)
			busy += st.busy()
		}
		if len(sts) > 0 {
			wall += int64(d)
			sd := sortedCopy(delays)
			delay50 = append(delay50, percentile(sd, 0.5)/1e3)
			delay90 = append(delay90, percentile(sd, 0.9)/1e3)
		}
	}
	checkDrained(w.Engine(), res)
	p50 := percentile(sortedCopy(runs.ms()), 0.5)
	m.set("trace.overhead_share", traced.medianMs()/p50-1, len(traced))
	res.notef("trace.overhead_share base: untraced run_p50_ms %.3f over %d runs", p50, len(runs))
	// Median over the traced runs of each run's percentile.
	m.set("core.enable_delay_us_p50", median(delay50), len(delay50))
	m.set("core.enable_delay_us_p90", median(delay90), len(delay90))
	overhead := 0.0
	if wall > 0 {
		overhead = 1 - float64(busy)/(float64(nproc())*float64(wall))
		res.notef("core.sched_overhead_share base: %.3f ms stage busy over %d × %.3f ms wall", float64(busy)/1e6, nproc(), float64(wall)/1e6)
	}
	m.set("core.sched_overhead_share", overhead, len(traced))

	// Probes and kernels first: the workload's own numbers replace the
	// sample's where it has better ones.
	in := sampleInputs(cfg.seed, cfg.quick)
	w.Inputs(in)
	layerProbes(m, res, in, cfg.quick)
	if err := serveProbe(m, res, cfg.seed, cfg.quick); err != nil {
		return err
	}
	w.Layer(m, res)
	if cfg.spansOut != "" {
		if err := tr.write(cfg.spansOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
