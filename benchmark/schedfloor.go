package main

import (
	"fmt"
	"math/big"
	"time"

	"piper"
	"piper/internal/pipefib"
	"piper/internal/workload"
)

// sched-floor: rounds of four fixed-count phases on one engine. The
// bodies do no work to speak of, so the scheduler core and its deques do
// nearly all of it; the arena, admission and the application kernels do
// none. A scheduler change must show here and a data-plane change must
// not.
const (
	floorEmptyIters = 1_000_000 // stage-0-only body
	floorSPSIters   = 100_000   // Continue(1) with a short spin, Wait(2)
	floorChainIters = 200_000   // four empty Wait stages
	floorFibN       = 2000      // pipefib.Fine
	// floorSpinUnits is fixed, not calibrated per host, so that every run
	// does the same work: about 1 µs of workload.Spin.
	floorSpinUnits = 512
)

var (
	floorSPSStages   = []string{"sps.stage0", "sps.parallel", "sps.serial"}
	floorSPSSerial   = []bool{true, false, true}
	floorChainStages = []string{"chain.stage0", "chain.wait1", "chain.wait2", "chain.wait3", "chain.wait4"}
	floorChainSerial = []bool{true, true, true, true, true}
)

type schedFloor struct {
	eng *piper.Engine
	// scale divides the phase counts; 1 except in the quick smoke test.
	scale int
	ref   *floorOut
	// maxLive is the largest MaxLiveIterations any phase reported.
	maxLive int64
}

// floorOut is what one round computes; the serial elision's is the
// reference.
type floorOut struct {
	empty, chain int64
	sps          uint64
	fib          *big.Int
}

func (o *floorOut) equal(p *floorOut) bool {
	return o.empty == p.empty && o.chain == p.chain && o.sps == p.sps && o.fib.Cmp(p.fib) == 0
}

func (w *schedFloor) iters() (empty, sps, chain, fib int) {
	s := max(w.scale, 1)
	return floorEmptyIters / s, floorSPSIters / s, floorChainIters / s, max(floorFibN/s, 16)
}

func (w *schedFloor) Setup(seed uint64) error {
	w.eng = piper.NewEngine(piper.Workers(nproc()))
	w.ref = nil
	for i := 0; i < 2; i++ { // warm-up: pools fill, plans compile
		w.round(w.eng.RunPipeline, nil, nil)
	}
	return nil
}

func (w *schedFloor) Close()                { w.eng.Close() }
func (w *schedFloor) Engine() *piper.Engine { return w.eng }

func (w *schedFloor) Ops() float64 {
	e, s, c, f := w.iters()
	return float64(e + s + c + f - 2)
}

// spsStages is the body of the sps phase past stage 0: a parallel stage
// that spins for about a microsecond, then a serial one.
func spsStages(it *piper.Iter) uint64 {
	it.Continue(1)
	x := workload.Spin(floorSpinUnits)
	it.Wait(2)
	return x
}

// runner is how a phase is executed: on the engine, or serially.
type runner func(k int, cond func() bool, body func(*piper.Iter)) piper.PipelineReport

func serialRunner(_ int, cond func() bool, body func(*piper.Iter)) piper.PipelineReport {
	return piper.RunSerial(cond, body)
}

// round runs the three synthetic phases through run and returns their
// outputs; the caller adds pipe-fib. With stamps given, the sps and chain
// bodies record every stage.
func (w *schedFloor) round(run runner, sps, chain *stageTrace) *floorOut {
	out := &floorOut{}
	nEmpty, nSPS, nChain, _ := w.iters()
	note := func(r piper.PipelineReport) { w.maxLive = max(w.maxLive, r.MaxLiveIterations) }

	i := 0
	note(run(0, func() bool { i++; return i <= nEmpty }, func(it *piper.Iter) {
		out.empty++ // stage 0 is serial
	}))

	i = 0
	if sps == nil {
		note(run(0, func() bool { i++; return i <= nSPS }, func(it *piper.Iter) {
			out.sps = out.sps*31 + spsStages(it) + uint64(it.Index())
		}))
	} else {
		note(run(0, func() bool { i++; return i <= nSPS }, func(it *piper.Iter) {
			row := sps.row(int(it.Index()))
			row[0].start = sps.now()
			row[0].end = sps.now()
			it.Continue(1)
			row[1].start = sps.now()
			x := workload.Spin(floorSpinUnits)
			row[1].end = sps.now()
			it.Wait(2)
			row[2].start = sps.now()
			out.sps = out.sps*31 + x + uint64(it.Index())
			row[2].end = sps.now()
		}))
	}

	i = 0
	if chain == nil {
		note(run(0, func() bool { i++; return i <= nChain }, func(it *piper.Iter) {
			it.Wait(1)
			it.Wait(2)
			it.Wait(3)
			it.Wait(4)
			out.chain++
		}))
	} else {
		note(run(0, func() bool { i++; return i <= nChain }, func(it *piper.Iter) {
			row := chain.row(int(it.Index()))
			row[0].start = chain.now()
			row[0].end = chain.now()
			it.Wait(1)
			row[1].start = chain.now()
			row[1].end = chain.now()
			it.Wait(2)
			row[2].start = chain.now()
			row[2].end = chain.now()
			it.Wait(3)
			row[3].start = chain.now()
			row[3].end = chain.now()
			it.Wait(4)
			row[4].start = chain.now()
			out.chain++
			row[4].end = chain.now()
		}))
	}
	return out
}

func (w *schedFloor) Serial() time.Duration {
	_, _, _, n := w.iters()
	t0 := time.Now()
	out := w.round(serialRunner, nil, nil)
	out.fib = pipefib.SerialFine(n)
	d := time.Since(t0)
	if w.ref == nil {
		w.ref = out
	}
	return d
}

func (w *schedFloor) check(out *floorOut) error {
	_, _, _, n := w.iters()
	if !out.equal(w.ref) {
		return fmt.Errorf("round output differs from the serial elision's")
	}
	if out.fib.Cmp(pipefib.Reference(n)) != 0 {
		return fmt.Errorf("pipefib.Fine(%d) differs from pipefib.Reference", n)
	}
	return nil
}

func (w *schedFloor) Run() (time.Duration, error) {
	_, _, _, n := w.iters()
	t0 := time.Now()
	out := w.round(w.eng.RunPipeline, nil, nil)
	out.fib = pipefib.Fine(w.eng, 0, n)
	d := time.Since(t0)
	return d, w.check(out)
}

// Traced stamps the sps and chain phases. The empty phase has a stage 0
// only and pipe-fib's body belongs to the library, so both stay coarse.
func (w *schedFloor) Traced(tr *tracer, run int) (time.Duration, []*stageTrace, error) {
	_, nSPS, nChain, n := w.iters()
	sps := newStageTrace(nSPS, floorSPSStages, floorSPSSerial)
	chain := newStageTrace(nChain, floorChainStages, floorChainSerial)
	start := tr.now()
	t0 := time.Now()
	out := w.round(w.eng.RunPipeline, sps, chain)
	out.fib = pipefib.Fine(w.eng, 0, n)
	d := time.Since(t0)
	id := tr.add("sched-floor.round", run, -1, start, tr.now())
	sps.export(tr, run, id, start+int64(sps.base.Sub(t0)))
	chain.export(tr, run, id, start+int64(chain.base.Sub(t0)))
	return d, []*stageTrace{sps, chain}, w.check(out)
}

func (w *schedFloor) Layer(m metrics, res *result) {
	m.set("core.max_live_iters", float64(w.maxLive), 1)
	if k := int64(w.eng.Options().Throttle); w.maxLive > k {
		res.warnf("core.max_live_iters %d exceeds the throttle K=%d", w.maxLive, k)
	}
	// Work and span of the sps phase, the one phase with parallel work,
	// against the time that phase takes on its own.
	_, nSPS, _, _ := w.iters()
	var sink uint64
	sps := func(run runner) (piper.PipelineReport, float64) {
		i := 0
		t0 := time.Now()
		rep := run(0, func() bool { i++; return i <= nSPS }, func(it *piper.Iter) { sink += spsStages(it) })
		return rep, float64(time.Since(t0)) / 1e6
	}
	took := medianOf(5, func() float64 {
		f := hostFactor()
		_, ms := sps(w.eng.RunPipeline)
		return ms / f
	})
	profileMetrics(m, res, func() piper.PipelineReport { rep, _ := sps(w.eng.ProfilePipeline); return rep }, took)
	m.set("trace.twin_ratio", 1, 0) // the traced bodies are the measured ones
}

func (w *schedFloor) Inputs(in *kernelInputs) { _, _, _, in.fibN = w.iters() }
