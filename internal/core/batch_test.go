package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for batched inline execution with grain control: claim/release
// accounting, the cost-bounded claim policy, split semantics under real
// suspensions, and the Grain(1) equivalence contract.

func TestGrainNormalization(t *testing.T) {
	cases := []struct {
		name       string
		in         Options
		grain, max int
	}{
		{"defaults-adaptive", Options{Workers: 1}, 0, defaultGrainMax},
		{"fixed", Options{Workers: 1, Grain: 4}, 4, 4},
		{"fixed-overrides-max", Options{Workers: 1, Grain: 4, GrainMax: 99}, 4, 4},
		{"adaptive-capped", Options{Workers: 1, GrainMax: 8}, 0, 8},
		{"negative-grain", Options{Workers: 1, Grain: -3}, 0, defaultGrainMax},
	}
	for _, c := range cases {
		o := c.in
		o.normalize()
		if o.Grain != c.grain || o.GrainMax != c.max {
			t.Errorf("%s: normalize(%+v) -> Grain=%d GrainMax=%d, want %d/%d",
				c.name, c.in, o.Grain, o.GrainMax, c.grain, c.max)
		}
	}
}

// TestAdaptiveGrainGrowsWhenAlone: a single worker running an unblocked
// pipeline of bodies that cost nothing (on a clock that says so: the real
// one reads a preemption, or the race detector, as cost) must climb to
// its ceiling and execute the bulk of the iterations as deferred-release
// batch slots.
func TestAdaptiveGrainGrowsWhenAlone(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers, o.GrainMax = 1, 16
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
	const n = 2000
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) { i++ })
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.FinalGrain != 16 {
		t.Errorf("FinalGrain = %d, want the GrainMax ceiling 16", rep.FinalGrain)
	}
	s := e.Stats()
	if s.InlineIterations != n {
		t.Errorf("InlineIterations = %d, want %d", s.InlineIterations, n)
	}
	if s.Promotions != 0 || s.BatchSplits != 0 {
		t.Errorf("Promotions = %d, BatchSplits = %d, want 0/0 for an unblocked pipeline", s.Promotions, s.BatchSplits)
	}
	// With the grain at the ceiling, each 16-slot batch defers 15
	// releases; allowing for the geometric ramp-up, well over half the
	// iterations must have been deferred slots.
	if s.BatchedIterations < n/2 {
		t.Errorf("BatchedIterations = %d, want >= %d (most iterations batched)", s.BatchedIterations, n/2)
	}
	checkEngineDrained(t, e)
}

// TestGrainOneMatchesUnbatched: Grain(1) must reproduce the unbatched
// protocol exactly — zero deferred slots, zero splits, and identical
// output ordering.
func TestGrainOneMatchesUnbatched(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2; o.Grain = 1 })
	var order []int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < 500 }, func(it *Iter) {
		i++
		it.Continue(1)
		v := it.Index()
		it.Wait(2)
		order = append(order, v)
	})
	if rep.FinalGrain != 1 {
		t.Errorf("FinalGrain = %d, want 1", rep.FinalGrain)
	}
	s := e.Stats()
	if s.BatchedIterations != 0 || s.BatchSplits != 0 {
		t.Errorf("Grain(1) batched: BatchedIterations=%d BatchSplits=%d, want 0/0",
			s.BatchedIterations, s.BatchSplits)
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d: %d", k, v)
		}
	}
	checkEngineDrained(t, e)
}

// TestFixedGrainBatchesAndOrders: a fixed Grain(8) pipeline with a serial
// tail stage must batch (most iterations deferred) while preserving the
// serial-stage ordering invariant bit for bit.
func TestFixedGrainBatchesAndOrders(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2; o.Grain = 8 })
	var order []int64
	i := 0
	const n = 800
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		v := it.Index()
		it.Wait(2)
		order = append(order, v)
	})
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if len(order) != n {
		t.Fatalf("%d outputs, want %d", len(order), n)
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("serial stage order violated at %d: %d", k, v)
		}
	}
	if s := e.Stats(); s.BatchedIterations == 0 {
		t.Error("fixed Grain(8) produced no deferred batch slots")
	}
	checkEngineDrained(t, e)
}

// TestBatchSplitsOnBlockedEdge: iteration 0, claimed as the first slot of
// a fixed-grain batch, promotes deterministically through a nested
// pipeline — splitting its batch and performing the deferred control
// release — and then stalls its promoted stage 1 on a gate. The next
// batch's first slot therefore finds its cross edge into the still-live
// iteration 0 unsatisfied and must promote too, splitting a second batch
// at the cross-edge path; the run must still complete in order. (A slot
// may not block the claim on raw channels itself: a deferred slot holds
// the pipe_while continuation, so only piper's own blocking primitives —
// which promote and split — are batch-safe, mirroring the paper's rule
// that inter-iteration dependencies go through pipe_wait.)
func TestBatchSplitsOnBlockedEdge(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2; o.Grain = 8 })
	gate := make(chan struct{})
	go func() {
		// Open the gate once the cross-edge promotion is observed (bounded
		// wait: a surprising schedule weakens the test, never hangs it).
		settles(5*time.Second, func() bool { return e.Stats().Promotions >= 2 })
		close(gate)
	}()
	var order []int64
	i := 0
	e.PipeWhile(func() bool { return i < 64 }, func(it *Iter) {
		i++
		it.Continue(1)
		if it.Index() == 0 {
			// The nested body holds out until this iteration has promoted: a
			// thief that is spinning for work when the nested control frame
			// is pushed could otherwise finish the nested pipeline before
			// the sync below ever looks, and nothing would promote.
			j := 0
			it.PipeWhile(func() bool { j++; return j <= 1 }, func(nit *Iter) {
				for e.Stats().Promotions == 0 {
					runtime.Gosched()
				}
				nit.Continue(1)
			})
			<-gate // promoted by the nested pipe: blocks only this coroutine
		}
		it.Wait(2)
		order = append(order, it.Index())
	})
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d: %d", k, v)
		}
	}
	s := e.Stats()
	if s.BatchSplits == 0 {
		t.Error("blocked slots inside batch claims produced no split")
	}
	checkEngineDrained(t, e)
}

// TestBatchAbortMidClaim: a cancellation visible at a batch's claim gate
// must stop the claim — no further slot starts once the abort flag is
// published — and every frame must drain back to the pools. Handle.Cancel
// sets the flag synchronously (unlike a context cancellation, whose
// AfterFunc delivery the batch may legitimately outrun), so the gated
// iteration resumes with the abort already observable.
func TestBatchAbortMidClaim(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1; o.Grain = 16 })
	started := make(chan struct{})
	gate := make(chan struct{})
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= 1<<20 }, func(it *Iter) {
		if it.Index() == 100 {
			close(started)
			<-gate
		}
	})
	<-started
	h.Cancel()
	close(gate)
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	rep, _ := h.Report()
	// Iteration 100 resumes with the abort flag set; the claim gate runs
	// before any further slot, so nothing past it may start.
	if rep.Iterations > 101 {
		t.Errorf("batch kept claiming after abort: %d iterations started", rep.Iterations)
	}
	checkEngineDrained(t, e)
}

// TestBatchPanicPropagates: a panic inside a deferred batch slot must
// stop the claim, surface through PipeWhile, and drain.
func TestBatchPanicPropagates(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1; o.Grain = 16 })
	var rec any
	func() {
		defer func() { rec = recover() }()
		i := 0
		e.PipeWhile(func() bool { i++; return i <= 1000 }, func(it *Iter) {
			if it.Index() == 57 {
				panic("boom at 57")
			}
		})
	}()
	if rec != "boom at 57" {
		t.Fatalf("recovered %v, want the iteration panic", rec)
	}
	checkEngineDrained(t, e)
}

// TestBatchRespectsThrottle: batching holds one live frame per claim, so
// even a large fixed grain must never push the live-iteration peak past
// the throttling window.
func TestBatchRespectsThrottle(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2; o.Grain = 32 })
	i := 0
	rep := e.RunPipeline(3, func() bool { return i < 400 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
	})
	if rep.MaxLiveIterations > 3 {
		t.Fatalf("MaxLiveIterations = %d exceeds K=3 under Grain(32)", rep.MaxLiveIterations)
	}
	checkEngineDrained(t, e)
}

// TestBatchIndexAndStageView: the per-iteration view through the Iter
// handle (Index, Stage) must be indistinguishable from unbatched
// execution while the frame is recycled in place across a claim.
func TestBatchIndexAndStageView(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1; o.Grain = 8 })
	i := 0
	const n = 100
	var idxErrs, stageErrs int
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		want := int64(i)
		i++
		if it.Index() != want {
			idxErrs++
		}
		if it.Stage() != 0 {
			stageErrs++
		}
		it.Continue(2)
		if it.Stage() != 2 {
			stageErrs++
		}
		it.Wait(5)
		if it.Stage() != 5 {
			stageErrs++
		}
	})
	if idxErrs != 0 || stageErrs != 0 {
		t.Fatalf("%d index and %d stage mismatches across batched iterations", idxErrs, stageErrs)
	}
	checkEngineDrained(t, e)
}

// TestInstrumentedPinsGrain: profiled pipelines must run with claim 1 so
// the work/span accounting chains through real predecessor frames.
func TestInstrumentedPinsGrain(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1; o.GrainMax = 32 })
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < 300 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
	})
	if rep.WorkNs <= 0 || rep.SpanNs <= 0 {
		t.Fatalf("instrumentation lost under batching: work=%d span=%d", rep.WorkNs, rep.SpanNs)
	}
	if s := e.Stats(); s.BatchedIterations != 0 {
		t.Errorf("BatchedIterations = %d during an instrumented run, want 0", s.BatchedIterations)
	}
	checkEngineDrained(t, e)
}

// busyFor spins on the scheduler's own clock for d: a body cost that holds
// whatever the host's speed and under the race detector, which a unit
// count of arithmetic does not.
func busyFor(d time.Duration) {
	for end := nowNs() + int64(d); nowNs() < end; {
	}
}

// costClock is a virtual clock for openBatch: bodies declare what they
// cost with spend, and the claim sequence becomes a function of declared
// cost alone — the same on a loaded host, under the race detector and
// under perturbation, all of which move the real clock past coarseIterNs
// for bodies that cost nothing.
type costClock struct{ ns atomic.Int64 }

func (c *costClock) spend(d time.Duration) { c.ns.Add(int64(d)) }

// withClock returns a copy of inner (nil: an empty hook set) whose clock
// hook is clock; a nil clock selects the real one.
func withClock(inner *schedHooks, clock func() int64) *schedHooks {
	h := &schedHooks{}
	if inner != nil {
		*h = *inner
	}
	h.clock = clock
	return h
}

// claimRecorder reconstructs every batch's size from the hook points:
// hookIteration fires once per batch and hookBatchSlot once per further
// slot, both under control-frame ownership. Only meaningful while a single
// pipeline runs on the engine. A non-nil inner hook set runs behind it, so
// the same scenario can run perturbed.
type claimRecorder struct {
	mu    sync.Mutex
	sizes []int
}

func (r *claimRecorder) hooks(inner *schedHooks) *schedHooks {
	h := &schedHooks{}
	if inner != nil {
		*h = *inner
	}
	h.point = func(p hookPoint) {
		r.mu.Lock()
		switch p {
		case hookIteration:
			r.sizes = append(r.sizes, 1)
		case hookBatchSlot:
			r.sizes[len(r.sizes)-1]++
		}
		r.mu.Unlock()
		if inner != nil && inner.point != nil {
			inner.point(p)
		}
	}
	return h
}

// batches returns the recorded claim sizes and, for each, the index of its
// first iteration.
func (r *claimRecorder) batches() (sizes []int, first []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := 0
	for _, n := range r.sizes {
		sizes, first = append(sizes, n), append(first, at)
		at += n
	}
	return sizes, first
}

// costTiers runs f unperturbed and then under both tiers of the
// perturbation matrix (compiled and interpreted dispatch, seeded hooks).
// f picks the clock its assertions need with withClock — a costClock for
// exact claim sequences, the real one for bodies that really are coarse —
// so every assertion holds in every tier and under the race detector.
func costTiers(t *testing.T, f func(t *testing.T, opts Options)) {
	t.Run("plain", func(t *testing.T) { f(t, DefaultOptions()) })
	for _, compiled := range []bool{true, false} {
		name := "perturbed-compiled"
		if !compiled {
			name = "perturbed-interp"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := DefaultOptions()
				opts.CompilePlans = compiled
				opts.hooks = newPerturber(seed * 0x51ed)
				f(t, opts)
			}
		})
	}
}

// runSPS runs n iterations of a serial/parallel/serial pipeline whose
// parallel stage costs work(i), and checks the serial stage saw every
// iteration in order.
func runSPS(t *testing.T, e *Engine, n int, work func(i int64)) PipelineReport {
	t.Helper()
	var order []int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		work(it.Index())
		it.Wait(2)
		order = append(order, it.Index())
	})
	if rep.Iterations != int64(n) || len(order) != n {
		t.Fatalf("ran %d iterations with %d outputs, want %d", rep.Iterations, len(order), n)
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("serial stage order violated at %d: %d", k, v)
		}
	}
	checkEngineDrained(t, e)
	return rep
}

// TestCoarseBodyRunsUnbatched: once iterations cost tens of microseconds
// the claim is 1 — the continuation is released at every stage-0 exit and
// the second worker lives off it. The bodies really spin and the real
// clock measures them: load, perturbation and the race detector only add
// to what it reads. Each body then waits (bounded) for the next iteration
// to start: while it runs, its worker cannot take the released continuation
// back, so only a steal starts that iteration, and the steal count no
// longer depends on how fast the host lets the thief be. This test fails on
// the parent commit, where a fixed two-worker pool let the grain climb to
// 64: nearly every iteration ran as a deferred slot, which releases
// nothing, and a run saw about one steal.
func TestCoarseBodyRunsUnbatched(t *testing.T) {
	costTiers(t, func(t *testing.T, opts Options) {
		opts.Workers = 2
		opts.hooks = withClock(opts.hooks, nil)
		e := NewEngine(opts)
		defer e.Close()
		const n = 1500
		var started atomic.Int64
		var order []int64
		i := 0
		rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
			i++
			started.Add(1)
			it.Continue(1)
			busyFor(20 * time.Microsecond)
			for end := nowNs() + int64(2*time.Millisecond); started.Load() <= it.Index()+1 && it.Index() < n-1 && nowNs() < end; {
				runtime.Gosched()
			}
			it.Wait(2)
			order = append(order, it.Index())
		})
		if rep.Iterations != n || len(order) != n {
			t.Fatalf("ran %d iterations with %d outputs, want %d", rep.Iterations, len(order), n)
		}
		for k, v := range order {
			if v != int64(k) {
				t.Fatalf("serial stage order violated at %d: %d", k, v)
			}
		}
		s := e.Stats()
		if rep.FinalGrain != 1 {
			t.Errorf("FinalGrain = %d, want 1 for 20 µs bodies", rep.FinalGrain)
		}
		if s.BatchedIterations*20 >= n {
			t.Errorf("BatchedIterations = %d of %d, want under 5 %%", s.BatchedIterations, n)
		}
		if got := s.Steals + s.ThiefEnables; got < n/2 {
			t.Errorf("Steals + ThiefEnables = %d over %d iterations, want >= %d (the parent: about one a run)", got, n, n/2)
		}
		checkEngineDrained(t, e)
	})
}

// TestCheapBodyStillBatches: the cost rule must leave cheap bodies alone.
// An SPS body declared to cost 200 ns, on two workers — the continuation
// is released and a thief is there to take it — still climbs to the
// GrainMax ceiling and stays there.
func TestCheapBodyStillBatches(t *testing.T) {
	costTiers(t, func(t *testing.T, opts Options) {
		var clk costClock
		opts.Workers = 2
		opts.hooks = withClock(opts.hooks, clk.ns.Load)
		e := NewEngine(opts)
		defer e.Close()
		const n = 5000
		rep := runSPS(t, e, n, func(int64) { clk.spend(200 * time.Nanosecond) })
		if got := e.Stats().BatchedIterations; rep.FinalGrain != defaultGrainMax || got < n*9/10 {
			t.Errorf("FinalGrain = %d with %d of %d iterations batched, want %d and at least 90 %%",
				rep.FinalGrain, got, n, defaultGrainMax)
		}
	})
}

// TestCostStepDropsClaim: a pipeline whose body steps from cheap to coarse
// mid-run is at claim 1 within two batches of the step — the batch the
// step landed in, whose mean cost may still read cheap, and one more. A
// batch that splits at its first slot does not count: it released the
// continuation there and then, and its one-slot sample cannot lower the
// claim (see openBatch). Any batch of two or more coarse slots can.
func TestCostStepDropsClaim(t *testing.T) {
	costTiers(t, func(t *testing.T, opts Options) {
		for _, workers := range []int{1, 2} {
			var clk costClock
			var rec claimRecorder
			opts.Workers = workers
			opts.GrainMax = 16
			opts.hooks = rec.hooks(withClock(opts.hooks, clk.ns.Load))
			e := NewEngine(opts)
			const n, step = 3000, 2000
			runSPS(t, e, n, func(i int64) {
				if i >= step {
					clk.spend(20 * time.Microsecond)
				}
			})
			e.Close()
			sizes, first := rec.batches()
			hit, peak := -1, 0
			for b := range sizes {
				if first[b] <= step {
					hit, peak = b, max(peak, sizes[b])
				}
			}
			if peak != 16 {
				t.Errorf("P=%d: largest claim before the step = %d, want the ceiling 16", workers, peak)
			}
			long := 0
			for b := hit + 1; b < len(sizes); b++ {
				if sizes[b] > 1 {
					long++
				}
			}
			if long > 1 {
				t.Errorf("P=%d: %d batches of more than one slot after batch %d, which holds the step at %d: want at most one (sizes from there: %v)",
					workers, long, hit, step, sizes[hit:min(hit+40, len(sizes))])
			}
		}
	})
}
