package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

// Elastic worker pool and admission-control tests: the engine scales from
// MinWorkers to MaxWorkers under burst load and back after the idle grace,
// Submit rejects with ErrSaturated against a MaxPending budget while
// SubmitWait blocks (or honors a context deadline), and the whole elastic
// machinery survives Close racing spawn/retire churn.

func elasticOpts(min, max int, grace time.Duration) Options {
	opts := DefaultOptions()
	opts.Workers = min
	opts.MinWorkers = min
	opts.MaxWorkers = max
	opts.RetireAfter = grace
	return opts
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

// TestNormalizeElasticBounds pins the knob-reconciliation rules: an
// explicit MaxWorkers below (possibly defaulted) Workers shrinks the
// pool rather than being silently raised by the MinWorkers default, an
// explicit floor wins over a defaulted ceiling, and the initial count is
// clamped into [Min, Max].
func TestNormalizeElasticBounds(t *testing.T) {
	cases := []struct {
		name            string
		in              Options
		wkr, minW, maxW int
		elastic         bool
	}{
		{"defaults-fixed", Options{Workers: 4}, 4, 4, 4, false},
		{"explicit-ceiling-caps", Options{Workers: 8, MaxWorkers: 2}, 2, 2, 2, false},
		{"elastic-range", Options{Workers: 4, MinWorkers: 1, MaxWorkers: 8}, 4, 1, 8, true},
		{"floor-raises", Options{Workers: 2, MinWorkers: 4}, 4, 4, 4, false},
		{"min-only-elastic", Options{Workers: 8, MinWorkers: 2}, 8, 2, 8, true},
		{"workers-clamped-up", Options{Workers: 1, MinWorkers: 2, MaxWorkers: 4}, 2, 2, 4, true},
	}
	for _, c := range cases {
		o := c.in
		o.normalize()
		if o.Workers != c.wkr || o.MinWorkers != c.minW || o.MaxWorkers != c.maxW || o.elastic() != c.elastic {
			t.Errorf("%s: normalize(%+v) -> Workers=%d Min=%d Max=%d elastic=%v, want %d/%d/%d/%v",
				c.name, c.in, o.Workers, o.MinWorkers, o.MaxWorkers, o.elastic(),
				c.wkr, c.minW, c.maxW, c.elastic)
		}
	}
}

func TestElasticScaleUpAndDown(t *testing.T) {
	base := goroutineBaseline()
	e := NewEngine(elasticOpts(1, 4, 2*time.Millisecond))

	if got := e.Stats().LiveWorkers; got != 1 {
		t.Fatalf("LiveWorkers at start = %d, want 1 (MinWorkers)", got)
	}
	for _, h := range burstSubmit(e, 32, 2000) {
		if err := h.Wait(); err != nil {
			t.Fatalf("burst pipeline failed: %v", err)
		}
	}
	s := e.Stats()
	if s.WorkerSpawns < 1 {
		t.Errorf("WorkerSpawns = %d, want >= 1 after a 32-pipeline burst on a 1-worker engine", s.WorkerSpawns)
	}
	if s.LiveWorkers > 4 {
		t.Errorf("LiveWorkers = %d exceeds MaxWorkers=4", s.LiveWorkers)
	}

	// Idle: surplus workers must retire back to the MinWorkers floor.
	if !settles(5*time.Second, func() bool { return e.Stats().LiveWorkers == 1 }) {
		t.Errorf("LiveWorkers = %d after idle grace, want 1", e.Stats().LiveWorkers)
	}
	s = e.Stats()
	if s.WorkerRetires < 1 {
		t.Errorf("WorkerRetires = %d, want >= 1", s.WorkerRetires)
	}

	// The same with a pipeline live throughout, which is when idle workers
	// spin before they park: the spin must not keep a surplus worker from
	// its retire timer. The gated pipeline pins one worker, so the pool
	// settles at the floor only if every idle one retired.
	gate := make(chan struct{})
	pinned := gatedSubmit(e, gate)
	for _, h := range burstSubmit(e, 32, 2000) {
		if err := h.Wait(); err != nil {
			t.Fatalf("burst pipeline beside the gated one failed: %v", err)
		}
	}
	if !settles(5*time.Second, func() bool { return e.Stats().LiveWorkers == 1 }) {
		t.Errorf("LiveWorkers = %d with a pipeline live and the rest idle, want 1", e.Stats().LiveWorkers)
	}
	close(gate)
	if err := pinned.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	s = e.Stats()

	// The pool must grow again after a retire cycle (slots are reusable).
	for _, h := range burstSubmit(e, 32, 2000) {
		if err := h.Wait(); err != nil {
			t.Fatalf("second burst pipeline failed: %v", err)
		}
	}
	if got := e.Stats().WorkerSpawns; got <= s.WorkerSpawns {
		t.Errorf("WorkerSpawns did not grow on the second burst: %d -> %d", s.WorkerSpawns, got)
	}

	checkEngineDrained(t, e)
	e.Close()
	checkGoroutinesSettle(t, base, 2)
}

func TestFixedPoolNeverScales(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	e := NewEngine(opts)
	defer e.Close()
	for _, h := range burstSubmit(e, 16, 500) {
		if err := h.Wait(); err != nil {
			t.Fatalf("pipeline failed: %v", err)
		}
	}
	s := e.Stats()
	if s.WorkerSpawns != 0 || s.WorkerRetires != 0 {
		t.Errorf("fixed pool scaled: spawns=%d retires=%d", s.WorkerSpawns, s.WorkerRetires)
	}
	if s.LiveWorkers != 2 {
		t.Errorf("LiveWorkers = %d, want 2", s.LiveWorkers)
	}
}

// gatedSubmit submits a pipeline that blocks until gate closes, pinning
// one admission slot (and one worker) for the duration.
func gatedSubmit(e *Engine, gate <-chan struct{}) *Handle {
	i := 0
	return e.Submit(nil, func() bool { i++; return i == 1 }, func(it *Iter) {
		it.Continue(1)
		<-gate
	})
}

func TestSubmitRejectSaturated(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h1 := gatedSubmit(e, gate)

	h2 := e.Submit(nil, func() bool { return false }, func(*Iter) {})
	if err := h2.Wait(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Submit on a full budget: err = %v, want ErrSaturated", err)
	}
	if s := e.Stats(); s.Saturations != 1 {
		t.Errorf("Saturations = %d, want 1", s.Saturations)
	}
	if s := e.Stats(); s.PendingAdmitted != 1 {
		t.Errorf("PendingAdmitted = %d, want 1 while the gated pipeline runs", s.PendingAdmitted)
	}

	close(gate)
	if err := h1.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	// The slot is released before the Handle completes, so a new Submit
	// is admitted immediately.
	h3 := e.Submit(nil, func() bool { return false }, func(*Iter) {})
	if err := h3.Wait(); err != nil {
		t.Fatalf("Submit after release: err = %v, want nil", err)
	}
	if s := e.Stats(); s.PendingAdmitted != 0 {
		t.Errorf("PendingAdmitted = %d after completion, want 0", s.PendingAdmitted)
	}
	checkEngineDrained(t, e)
}

func TestSubmitWaitBlocksUntilAdmitted(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h1 := gatedSubmit(e, gate)

	admitted := make(chan *Handle, 1)
	go func() {
		var n atomic.Int64
		i := 0
		admitted <- e.SubmitWait(nil, func() bool { i++; return i <= 3 }, func(*Iter) { n.Add(1) })
	}()
	select {
	case <-admitted:
		t.Fatal("SubmitWait returned while the budget was exhausted")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	if err := h1.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	var h2 *Handle
	select {
	case h2 = <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitWait still blocked after the slot freed")
	}
	if err := h2.Wait(); err != nil {
		t.Fatalf("SubmitWait pipeline failed: %v", err)
	}
	if s := e.Stats(); s.AdmissionWaitNs <= 0 {
		t.Errorf("AdmissionWaitNs = %d, want > 0 after a blocked admission", s.AdmissionWaitNs)
	}
	checkEngineDrained(t, e)
}

func TestSubmitWaitContextDeadline(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h1 := gatedSubmit(e, gate)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	h2 := e.SubmitWait(ctx, func() bool { return true }, func(*Iter) {})
	if err := h2.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline admission: err = %v, want DeadlineExceeded", err)
	}
	if s := e.Stats(); s.Saturations < 1 {
		t.Errorf("Saturations = %d, want >= 1 after an expired admission", s.Saturations)
	}

	close(gate)
	if err := h1.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	checkEngineDrained(t, e)
}

// TestSubmitWaitAdmitsAll drives far more pipelines than the budget
// allows through concurrent SubmitWait callers on an elastic engine: every
// handle must resolve successfully — saturation delays work, it never
// loses it.
func TestSubmitWaitAdmitsAll(t *testing.T) {
	opts := elasticOpts(1, 4, 2*time.Millisecond)
	opts.MaxPending = 2
	e := NewEngine(opts)
	defer e.Close()

	const callers, per = 8, 25
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < per; q++ {
				i := 0
				var sink atomic.Uint64
				h := e.SubmitWait(nil, func() bool { i++; return i <= 3 }, func(it *Iter) {
					sink.Add(workload.Spin(200))
					it.Continue(1)
					sink.Add(workload.Spin(200))
				})
				if err := h.Wait(); err != nil {
					t.Errorf("SubmitWait pipeline failed: %v", err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := completed.Load(); got != callers*per {
		t.Errorf("completed %d pipelines, want %d", got, callers*per)
	}
	s := e.Stats()
	if s.PendingAdmitted != 0 {
		t.Errorf("PendingAdmitted = %d after drain, want 0", s.PendingAdmitted)
	}
	checkEngineDrained(t, e)
}

// TestCloseUnderChurn races Engine.Close against elastic spawn/retire
// churn and SubmitWait admission: every handle must resolve (completed or
// ErrEngineClosed) and Close must return — the wake sweep may not strand a
// worker that un-idles, retires, or parks between its claim and its wake
// token (see the audit comment in Close).
func TestCloseUnderChurn(t *testing.T) {
	for round := 0; round < 40; round++ {
		opts := elasticOpts(1, 4, 50*time.Microsecond)
		opts.MaxPending = 2
		e := NewEngine(opts)
		const submitters = 4
		var handles [submitters][3]*Handle
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for q := 0; q < 3; q++ {
					i := 0
					handles[s][q] = e.SubmitWait(nil, func() bool { i++; return i <= 2 }, func(it *Iter) {
						it.Continue(1)
					})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Close()
		}()
		close(start)
		wg.Wait()
		done := make(chan struct{})
		go func() {
			for s := range handles {
				for _, h := range handles[s] {
					if err := h.Wait(); err != nil && !errors.Is(err, ErrEngineClosed) {
						t.Errorf("round %d: unexpected handle error: %v", round, err)
					}
				}
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a handle hung across Close under elastic churn", round)
		}
	}
}

// TestElasticScaleUpServesBehindBlockedBatch races elastic scale-up
// against a batch that stalls. Alone on a MinWorkers=1 engine, an
// empty-body pipeline's claim climbs — there is nobody to starve. One slot
// then blocks on a gate, holding the only live worker and the pipe_while
// continuation with it. A burst of submissions must still complete while
// it is stuck (scale-up is what keeps that from deadlocking), and the
// pipeline must run to completion afterwards. The stalled batch held the
// continuation for milliseconds, far past what the cost rule allows a
// claim to cost, so the claim that follows it is a single slot, and the
// ramp restarts from there: batching may hold the continuation hostage
// once, not twice. A costClock declares the costs — the stall five
// milliseconds, every other body nothing — so the claim sizes are exact.
func TestElasticScaleUpServesBehindBlockedBatch(t *testing.T) {
	var clk costClock
	opts := elasticOpts(1, 4, 5*time.Second)
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
	if s := e.Stats(); s.WorkerSpawns == 0 {
		t.Fatalf("burst spawned no workers against a batching pipeline")
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
// as it does alone on a single-worker pool, on a fixed pool and on an
// elastic floor alike: the claim is a function of cost, which a costClock
// declares here (the sleep that parks the spare costs what it takes,
// every other body nothing), and no idle count enters it. CompilePlans is
// disabled so the interpreted batch loop is the one that ramps, from 1.
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
		{"elastic-floor", elasticOpts(2, 4, 5*time.Second)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var clk costClock
			c.opts.CompilePlans = false
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

// TestRetireTransfersResiduals forces frames into a retiring worker's
// injection ring and checks none are lost: the retire path drains them to
// the overflow list where the remaining workers find them.
func TestRetireTransfersResiduals(t *testing.T) {
	e := NewEngine(elasticOpts(1, 4, time.Millisecond))
	defer e.Close()

	// Grow the pool, then let it shrink while continuously feeding small
	// pipelines; every pipeline must complete even when its root frame
	// landed in a ring whose owner retired under it.
	var done atomic.Int64
	const total = 300
	for q := 0; q < total; q++ {
		i := 0
		h := e.Submit(nil, func() bool { i++; return i <= 2 }, func(it *Iter) {
			it.Continue(1)
		})
		go func() {
			if h.Wait() == nil {
				done.Add(1)
			}
		}()
		if q%50 == 49 {
			time.Sleep(3 * time.Millisecond) // let retires interleave
		}
	}
	if !settles(10*time.Second, func() bool { return done.Load() == total }) {
		t.Fatalf("completed %d/%d pipelines across retire churn", done.Load(), total)
	}
	checkEngineDrained(t, e)
}
