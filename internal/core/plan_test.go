package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// Plan-compiler tests: compiled dispatch must be semantically identical
// to the interpreter — same outputs, same serial-stage ordering, same
// panic and cancellation behavior — while the report and Stats expose
// what was compiled, fused, seeded, and deopted.

// planOpts returns DefaultOptions with CompilePlans forced to the given
// state (it defaults on; the explicit form keeps the pairing tests
// readable).
func planOpts(compile bool) Options {
	o := DefaultOptions()
	o.CompilePlans = compile
	return o
}

// runFusedProgram executes a shape-stable pipeline whose tail is a run of
// short interior continues — the fusable region — with a cross edge in
// the middle, and checks the per-stage ordering invariant on the fly the
// same way the fuzzer does: progress[i] is iteration i's self-declared
// stage, published before the runtime's own counter advances, so when a
// pipe_wait into (i, j) resolves, progress[i-1] > j must already hold.
func runFusedProgram(t *testing.T, opts Options, n int) ([]uint64, PipelineReport, *Engine) {
	t.Helper()
	opts.Workers = 4
	e := NewEngine(opts)
	t.Cleanup(e.Close)

	out := make([]uint64, n)
	progress := make([]atomic.Int64, n+1)
	var violations atomic.Int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := int(it.Index())
		i++
		acc := uint64(idx)*0x9e3779b97f4a7c15 + 1
		progress[idx].Store(1)
		it.Continue(1)
		acc = acc*31 + 1
		progress[idx].Store(2)
		it.Wait(2)
		if idx > 0 && progress[idx-1].Load() <= 2 {
			violations.Add(1)
		}
		acc = acc*31 + 2
		// Fusable tail: three short interior continues. Under a compiled
		// plan their boundary bookkeeping is elided entirely. Interpreted,
		// Continue(3) publishes stage 3 and releases the successor's
		// Wait(2), so the self-declared stage must be past 2 first.
		progress[idx].Store(3)
		it.Continue(3)
		acc = acc*31 + 3
		it.Continue(4)
		acc = acc*31 + 4
		it.Continue(5)
		acc = acc*31 + 5
		out[idx] = acc
		progress[idx].Store(math.MaxInt64)
	})
	if v := violations.Load(); v != 0 {
		t.Errorf("%d serial-stage ordering violations", v)
	}
	return out, rep, e
}

// TestPlanEquivalenceFused is the plan-equivalence unit test: the fused
// pipeline must produce bit-identical per-iteration values compiled and
// interpreted, hold the per-stage ordering invariant in both modes, and
// the compiled run's report must show the expected plan metadata.
func TestPlanEquivalenceFused(t *testing.T) {
	const n = 500
	compiled, crep, ce := runFusedProgram(t, planOpts(true), n)
	interp, irep, ie := runFusedProgram(t, planOpts(false), n)
	for i := range compiled {
		if compiled[i] != interp[i] {
			t.Fatalf("iteration %d: compiled %#x != interpreted %#x", i, compiled[i], interp[i])
		}
	}
	if !crep.PlanCompiled {
		t.Errorf("compiled run: PlanCompiled = false")
	}
	if crep.PlanStages != 6 {
		t.Errorf("PlanStages = %d, want 6 (stages 0..5)", crep.PlanStages)
	}
	// The three interior continues are fusable; the stage-0 exit and the
	// cross edge never are. Fusing depends on recorded stage costs, so a
	// slow CI box could in principle time a stage past the threshold —
	// assert the metadata is consistent rather than exactly 3.
	if crep.PlanFusedStages < 0 || crep.PlanFusedStages > 3 {
		t.Errorf("PlanFusedStages = %d, want 0..3", crep.PlanFusedStages)
	}
	if crep.PlanDeopts != 0 {
		t.Errorf("PlanDeopts = %d, want 0 for a shape-stable program", crep.PlanDeopts)
	}
	if irep.PlanCompiled || irep.PlanStages != 0 || irep.PlanFusedStages != 0 {
		t.Errorf("interpreted run leaked plan metadata: %+v", irep)
	}
	if s := ce.Stats(); s.PlansCompiled != 1 || s.PlanFusedStages != crep.PlanFusedStages {
		t.Errorf("compiled engine stats: PlansCompiled=%d PlanFusedStages=%d, want 1/%d",
			s.PlansCompiled, s.PlanFusedStages, crep.PlanFusedStages)
	}
	if s := ie.Stats(); s.PlansCompiled != 0 {
		t.Errorf("interpreted engine compiled %d plans", s.PlansCompiled)
	}
	checkEngineDrained(t, ce)
	checkEngineDrained(t, ie)
}

// TestPlanDeoptOnShapeChange: a program whose iterations change shape
// after recording must retract the plan exactly once, keep producing
// correct values through the mid-flight interpreter fallback, and report
// the deopt.
func TestPlanDeoptOnShapeChange(t *testing.T) {
	opts := planOpts(true)
	opts.Workers = 2
	e := NewEngine(opts)
	defer e.Close()

	const n = 300
	var sum atomic.Int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		if idx%2 == 0 {
			it.Continue(1)
			it.Wait(2)
			sum.Add(idx)
		} else {
			// Diverges from the recorded even shape at the first transition.
			it.Continue(3)
			sum.Add(idx * 10)
		}
	})
	var want int64
	for k := int64(0); k < n; k++ {
		if k%2 == 0 {
			want += k
		} else {
			want += k * 10
		}
	}
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if !rep.PlanCompiled {
		t.Errorf("PlanCompiled = false (iteration 0 was recordable)")
	}
	if rep.PlanDeopts != 1 {
		t.Errorf("PlanDeopts = %d, want exactly 1 (retraction is pipeline-wide)", rep.PlanDeopts)
	}
	if s := e.Stats(); s.PlanDeopts != 1 {
		t.Errorf("Stats.PlanDeopts = %d, want 1", s.PlanDeopts)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanSeedsGrain: a short pure-serial body's recorded cost
// seeds the claim at the ceiling, so batching engages right after the
// recording iteration instead of ramping from 1 — the difference is
// visible on a run too short for the cold ramp to finish. The batches
// after the seed are measured on a costClock, on which the empty bodies
// cost nothing whatever the host is doing.
func TestSerialPlanSeedsGrain(t *testing.T) {
	opts := planOpts(true)
	opts.Workers = 1
	opts.hooks = withClock(nil, new(costClock).ns.Load)
	e := NewEngine(opts)
	defer e.Close()

	const n = 100
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) { i++ })
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if !rep.PlanCompiled || rep.PlanStages != 1 {
		t.Errorf("serial plan not compiled: %+v", rep)
	}
	if rep.FinalGrain != defaultGrainMax {
		t.Errorf("FinalGrain = %d, want the seeded ceiling %d", rep.FinalGrain, int64(defaultGrainMax))
	}
	if s := e.Stats(); s.BatchedIterations < n/2 {
		t.Errorf("BatchedIterations = %d, want >= %d (seeding should batch nearly the whole run)",
			s.BatchedIterations, n/2)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanPanicPropagates: a panic inside the compiled serial fast
// loop must stop the batch, surface through PipeWhile, and drain —
// identical to the interpreted batch behavior.
func TestSerialPlanPanicPropagates(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
	var rec any
	func() {
		defer func() { rec = recover() }()
		i := 0
		e.PipeWhile(func() bool { i++; return i <= 1000 }, func(it *Iter) {
			if it.Index() == 257 {
				panic("boom at 257")
			}
		})
	}()
	if rec != "boom at 257" {
		t.Fatalf("recovered %v, want the iteration panic", rec)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanCancelDrains: cancellation mid-run of a compiled
// serial-only pipeline must abort at a batch boundary and drain every
// frame back to the pools. The condition is unbounded so cancellation is
// the only way the pipeline can end — a bounded run can legitimately
// finish before the cancel watcher fires on a loaded machine.
func TestSerialPlanCancelDrains(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	ctx, cancel := context.WithCancel(context.Background())
	h := e.Submit(ctx, func() bool { return true }, func(it *Iter) {
		if it.Index() == 500 {
			cancel()
		}
	})
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanForkJoin: fork-join inside stage 0 stays legal under a
// serial-only plan — a stolen child promotes the slot through the fast
// loop's slow tail — and the commutative sum proves no task is lost or
// duplicated.
func TestSerialPlanForkJoin(t *testing.T) {
	opts := planOpts(true)
	opts.Workers = 4
	e := NewEngine(opts)
	defer e.Close()

	const n = 400
	var sum atomic.Int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		it.Go(func() { sum.Add(idx) })
		it.Go(func() { sum.Add(idx * 3) })
		it.Sync()
	})
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if got, want := sum.Load(), int64(n*(n-1)/2*4); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	checkEngineDrained(t, e)
}

// TestPlanGatedByAblations: the compiler must stand down when its
// prerequisites are ablated — dependency folding off, eager enabling on —
// and for instrumented runs, whose work/span accounting needs every node
// boundary observed.
func TestPlanGatedByAblations(t *testing.T) {
	run := func(opts Options) Stats {
		opts.Workers = 2
		e := NewEngine(opts)
		defer e.Close()
		i := 0
		e.PipeWhile(func() bool { i++; return i <= 200 }, func(it *Iter) {
			it.Continue(1)
			it.Wait(2)
		})
		return e.Stats()
	}
	noFold := planOpts(true)
	noFold.DependencyFolding = false
	if s := run(noFold); s.PlansCompiled != 0 {
		t.Errorf("DependencyFolding=false compiled %d plans", s.PlansCompiled)
	}
	eager := planOpts(true)
	eager.EagerEnabling = true
	if s := run(eager); s.PlansCompiled != 0 {
		t.Errorf("EagerEnabling=true compiled %d plans", s.PlansCompiled)
	}

	inst := planOpts(true)
	inst.Workers = 2
	e := NewEngine(inst)
	defer e.Close()
	i := 0
	rep := e.ProfilePipeline(0, func() bool { i++; return i <= 200 }, func(it *Iter) {
		it.Continue(1)
		it.Wait(2)
	})
	if rep.PlanCompiled {
		t.Errorf("instrumented run compiled a plan")
	}
	if s := e.Stats(); s.PlansCompiled != 0 {
		t.Errorf("instrumented engine compiled %d plans", s.PlansCompiled)
	}
}
