package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

// Tests for batched inline execution with grain control: claim/release
// accounting, the cost-bounded claim policy, split semantics under real
// suspensions, and the claim-1 equivalence contract. A test that needs a
// given run length pins it with pinClaim.

// pinClaim is a claim hook that runs every batch at claim g, whatever the
// policy decides.
func pinClaim(g int64) func(int64) int64 {
	return func(int64) int64 { return g }
}

// TestAdaptiveGrainGrowsWhenAlone: a single worker running an unblocked
// pipeline of bodies that cost nothing (on a clock that says so: the real
// one reads a preemption, or the race detector, as cost) must climb to
// its ceiling and execute the bulk of the iterations as deferred-release
// batch slots.
func TestAdaptiveGrainGrowsWhenAlone(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 1
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
	const n = 2000
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) { i++ })
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.FinalGrain != maxClaim {
		t.Errorf("FinalGrain = %d, want the ceiling %d", rep.FinalGrain, maxClaim)
	}
	s := e.Stats()
	if s.Iterations != n {
		t.Errorf("Iterations = %d, want %d", s.Iterations, n)
	}
	if s.Promotions != 0 || s.BatchSplits != 0 {
		t.Errorf("Promotions = %d, BatchSplits = %d, want 0/0 for an unblocked pipeline", s.Promotions, s.BatchSplits)
	}
	// With the grain at the ceiling, each 64-slot batch defers 63
	// releases; allowing for the geometric ramp-up, well over half the
	// iterations must have been deferred slots.
	if s.BatchedIterations < n/2 {
		t.Errorf("BatchedIterations = %d, want >= %d (most iterations batched)", s.BatchedIterations, n/2)
	}
	checkEngineDrained(t, e)
}

// TestGrainOneMatchesUnbatched: claim 1 must reproduce the unbatched
// protocol exactly — zero deferred slots, zero splits, and identical
// output ordering.
func TestGrainOneMatchesUnbatched(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 2, &schedHooks{claim: pinClaim(1)} })
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
		t.Errorf("claim 1 batched: BatchedIterations=%d BatchSplits=%d, want 0/0",
			s.BatchedIterations, s.BatchSplits)
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d: %d", k, v)
		}
	}
	checkEngineDrained(t, e)
}

// TestFixedGrainBatchesAndOrders: a pipeline pinned at claim 8 with a serial
// tail stage must batch (most iterations deferred) while preserving the
// serial-stage ordering invariant bit for bit.
func TestFixedGrainBatchesAndOrders(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 2, &schedHooks{claim: pinClaim(8)} })
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
		t.Error("claim 8 produced no deferred batch slots")
	}
	checkEngineDrained(t, e)
}

// TestBatchSplitsOnBlockedEdge: iteration 0, claimed as the first slot of
// a claim-8 batch, promotes deterministically through a nested
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
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 2, &schedHooks{claim: pinClaim(8)} })
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
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 1, &schedHooks{claim: pinClaim(16)} })
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
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 1, &schedHooks{claim: pinClaim(16)} })
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
// even a large pinned claim must never push the live-iteration peak past
// the throttling window.
func TestBatchRespectsThrottle(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 2, &schedHooks{claim: pinClaim(32)} })
	i := 0
	rep := e.RunPipeline(3, func() bool { return i < 400 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
	})
	if rep.MaxLiveIterations > 3 {
		t.Fatalf("MaxLiveIterations = %d exceeds K=3 under claim 32", rep.MaxLiveIterations)
	}
	checkEngineDrained(t, e)
}

// TestBatchIndexAndStageView: the per-iteration view through the Iter
// handle (Index, Stage) must be indistinguishable from unbatched
// execution while the frame is recycled in place across a claim.
func TestBatchIndexAndStageView(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.hooks = 1, &schedHooks{claim: pinClaim(8)} })
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
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
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

// costTiers runs f unperturbed and then under the perturbation matrix's
// seeded hooks. f picks the clock its assertions need with withClock — a
// costClock for exact claim sequences, the real one for bodies that
// really are coarse — so every assertion holds in both tiers and under
// the race detector.
func costTiers(t *testing.T, f func(t *testing.T, opts Options)) {
	t.Run("plain", func(t *testing.T) { f(t, DefaultOptions()) })
	t.Run("perturbed", func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			opts := DefaultOptions()
			opts.hooks = newPerturber(seed * 0x51ed)
			f(t, opts)
		}
	})
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
// An SPS body declared to cost 200 ns climbs to the maxClaim ceiling and,
// once a second worker is there to take the released continuation, stays
// there. The test reads the claims openBatch returns (schedHooks.claim),
// not how many slots a schedule ran deferred: a thief whose first slot
// finds the previous batch's last iteration unretired splits the batch,
// which costs deferred slots and is no decision of the policy. The ramp
// runs while a gated pipeline holds the second worker, so every open sees
// join == 1 and doubles; a thief taking the continuation at a one-slot open
// would leave the claim at 1 for good (ROADMAP item 7).
func TestCheapBodyStillBatches(t *testing.T) {
	costTiers(t, func(t *testing.T, opts Options) {
		var clk costClock
		var mu sync.Mutex
		var claims []int64
		started, gate := make(chan struct{}), make(chan struct{})
		var release sync.Once
		opts.Workers = 2
		opts.hooks = withClock(opts.hooks, clk.ns.Load)
		opts.hooks.claim = func(c int64) int64 {
			mu.Lock()
			claims = append(claims, c)
			mu.Unlock()
			if c == maxClaim {
				release.Do(func() { close(gate) })
			}
			return c
		}
		e := NewEngine(opts)
		defer e.Close()
		defer release.Do(func() { close(gate) })
		i := 0
		blocker := e.Submit(nil, func() bool { i++; return i == 1 }, func(it *Iter) {
			it.Continue(1)
			close(started)
			<-gate
		})
		<-started
		mu.Lock()
		claims = nil // the blocker's own claim
		mu.Unlock()
		const n = 5000
		rep := runSPS(t, e, n, func(int64) { clk.spend(200 * time.Nanosecond) })
		if err := blocker.Wait(); err != nil {
			t.Fatalf("blocker pipeline failed: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		want := []int64{1, 2, 4, 8, 16, 32, maxClaim}
		for k, c := range claims {
			w := int64(maxClaim)
			if k < len(want) {
				w = want[k]
			}
			if c != w {
				t.Fatalf("claim %d = %d, want %d: the ramp %v, then the ceiling throughout (claims from 0: %v)",
					k, c, w, want, claims[:min(len(claims), k+8)])
			}
		}
		if len(claims) < len(want) || rep.FinalGrain != maxClaim {
			t.Errorf("%d claims ending at FinalGrain %d, want the ramp %v and FinalGrain %d",
				len(claims), rep.FinalGrain, want, maxClaim)
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
			if peak != maxClaim {
				t.Errorf("P=%d: largest claim before the step = %d, want the ceiling %d", workers, peak, maxClaim)
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

// burstSubmit launches n spin-work pipelines and returns their handles.
func burstSubmit(e *Engine, n int, spin int64) []*Handle {
	handles := make([]*Handle, 0, n)
	for s := 0; s < n; s++ {
		i := 0
		var sink atomic.Uint64
		h := e.Submit(nil, func() bool { i++; return i <= 6 }, func(it *Iter) {
			sink.Add(workload.Spin(spin))
			it.Continue(1)
			sink.Add(workload.Spin(spin))
			it.Wait(2)
			sink.Add(workload.Spin(spin / 4))
		})
		handles = append(handles, h)
	}
	return handles
}

// TestBurstServedBehindBlockedBatch: on a two-worker engine an
// empty-body pipeline's claim climbs, then one slot blocks on a gate,
// holding its worker and the pipe_while continuation with it. A burst of
// submissions must still complete while it is stuck, served by the other
// worker, and the pipeline must run to completion afterwards. The stalled
// batch held the
// continuation for milliseconds, far past what the cost rule allows a
// claim to cost, so the claim that follows it is a single slot, and the
// ramp restarts from there: batching may hold the continuation hostage
// once, not twice. A costClock declares the costs — the stall five
// milliseconds, every other body nothing — so the claim sizes are exact.
func TestBurstServedBehindBlockedBatch(t *testing.T) {
	var clk costClock
	opts := DefaultOptions()
	opts.Workers = 2
	opts.hooks = withClock(nil, clk.ns.Load)
	e := NewEngine(opts)
	defer e.Close()

	const n, stall = 2000, 600
	reached := make(chan struct{})
	gate := make(chan struct{})
	// seen[k] is the engine's deferred-slot count as iteration k starts. A
	// batch adds its deferred slots (its size minus one) when it ends, so
	// the count steps exactly at batch boundaries.
	seen := make([]int64, n)
	i := 0
	done := make(chan PipelineReport, 1)
	go func() {
		done <- e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
			i++
			seen[it.Index()] = e.stats.batchedIters.Load()
			if it.Index() == stall {
				close(reached)
				<-gate
				clk.spend(5 * time.Millisecond)
			}
		})
	}()

	<-reached
	if s := e.Stats(); s.BatchedIterations < stall/2 {
		t.Errorf("BatchedIterations = %d before the burst, want >= %d (the claim never grew while alone)", s.BatchedIterations, stall/2)
	}
	for _, h := range burstSubmit(e, 20, 1000) {
		if err := h.Wait(); err != nil {
			t.Fatalf("burst pipeline failed behind the blocked batch: %v", err)
		}
	}
	// The burst is over, so from here on only this pipeline moves the count.
	quiet := e.stats.batchedIters.Load()
	close(gate)

	var rep PipelineReport
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline hung after the burst")
	}
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	// b is the first iteration past the stalled batch: a one-slot claim
	// defers nothing, the two-slot claim after it defers one, and that one
	// shows when the four-slot claim opens at b+3.
	b := stall + 1
	for b < n && seen[b] == quiet {
		b++
	}
	if b+3 >= n {
		t.Fatalf("the stalled batch ran to iteration %d of %d", b, n)
	}
	if got := seen[b+3] - seen[b]; got != 1 {
		t.Errorf("the three iterations after the stalled batch (from %d) deferred %d slots, want 1: claims of 1 and 2",
			b, got)
	}
	if rep.FinalGrain <= 1 {
		t.Errorf("FinalGrain = %d, want > 1 (empty bodies must ramp back up)", rep.FinalGrain)
	}
	checkEngineDrained(t, e)
}

// TestIdleSpareDoesNotPinGrain: a floor worker that idles because the
// offered load is one serial pipeline is not a reason to hold the claim
// down. A 2-worker engine running one serial-only pipeline — the spare
// parked throughout, stealing nothing — must let the grain climb exactly
// as it does alone on a single-worker pool: the claim is a function of
// cost, which a costClock
// declares here (the sleep that parks the spare costs what it takes,
// every other body nothing), and no idle count enters it.
func TestIdleSpareDoesNotPinGrain(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"fixed-spare", func() Options {
			o := DefaultOptions()
			o.Workers = 2
			return o
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var clk costClock
			c.opts.hooks = withClock(nil, clk.ns.Load)
			e := NewEngine(c.opts)
			defer e.Close()

			const n = 2000
			i := 0
			rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
				i++
				if it.Index() == 0 {
					// Let the spare worker exhaust its scan and park: the rest
					// of the run then opens every batch against a nonzero idle
					// count, which must not matter.
					time.Sleep(10 * time.Millisecond)
					clk.spend(10 * time.Millisecond)
				}
			})
			if rep.Iterations != n {
				t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
			}
			if rep.FinalGrain <= 1 {
				t.Errorf("FinalGrain = %d, want > 1 (a parked floor worker must not pin the grain)", rep.FinalGrain)
			}
			if s := e.Stats(); s.BatchedIterations == 0 {
				t.Errorf("BatchedIterations = 0, want > 0 (batching never engaged)")
			}
			checkEngineDrained(t, e)
		})
	}
}
