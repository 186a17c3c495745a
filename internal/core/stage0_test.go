package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// Stage-0 fast retire tests: a batch slot whose body never leaves stage 0
// defers its completion to the batch's exit (see runInlineBatch). Every
// exit — a panic, a cancel, a promotion, loop exhaustion, a slot that
// leaves stage 0 — must publish it, and a batch mixing both kinds of slot
// must keep the serial-stage ordering and the outputs of the serial
// elision. The first two tests hold the same for shapes that leave stage
// 0 in every or every other iteration.

// TestInteriorContinueOrdering runs a shape-stable pipeline whose tail is
// a run of short interior continues, with a cross edge before them, and
// checks the per-stage ordering invariant on the fly the same way the
// fuzzer does: progress[i] is iteration i's self-declared stage, published
// before the runtime's own counter advances, so when a pipe_wait into
// (i, j) resolves, progress[i-1] > j must already hold. The outputs must
// equal the serial elision's.
func TestInteriorContinueOrdering(t *testing.T) {
	const n = 500
	run := func(launch func(cond func() bool, body func(*Iter))) ([]uint64, int64) {
		out := make([]uint64, n)
		progress := make([]atomic.Int64, n+1)
		var violations atomic.Int64
		i := 0
		launch(func() bool { return i < n }, func(it *Iter) {
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
		return out, violations.Load()
	}
	want, _ := run(func(cond func() bool, body func(*Iter)) { RunSerial(cond, body) })
	e := newEngineOpts(t, func(o *Options) { o.Workers = 4 })
	got, violations := run(func(cond func() bool, body func(*Iter)) { e.RunPipeline(0, cond, body) })
	if violations != 0 {
		t.Errorf("%d serial-stage ordering violations", violations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration %d: engine produced %#x, serial %#x", i, got[i], want[i])
		}
	}
	checkEngineDrained(t, e)
}

// TestShapeChangeMidPipeline: iterations that alternate shapes — a
// Continue/Wait pair against a lone skip to stage 3 — must produce
// correct values and drain.
func TestShapeChangeMidPipeline(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	const n = 300
	var sum atomic.Int64
	i := 0
	e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		if idx%2 == 0 {
			it.Continue(1)
			it.Wait(2)
			sum.Add(idx)
		} else {
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
	checkEngineDrained(t, e)
}

// TestStage0BatchPanicPropagates: a panic in a stage-0-only body, inside
// a batch of fast-retired slots, must end the batch, surface through
// PipeWhile, and drain. The costClock ramps the claim to 64 well before
// iteration 257 on any host.
func TestStage0BatchPanicPropagates(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 1
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
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

// TestStage0BatchCancelDrains: cancellation mid-run of a stage-0-only
// pipeline must abort at a batch boundary, publish the last fast-retired
// slot, and drain every frame back to the pools. The condition is
// unbounded so cancellation is the only way the pipeline can end — a
// bounded run can legitimately finish before the cancel watcher fires on a
// loaded machine.
func TestStage0BatchCancelDrains(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 2
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
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

// TestStage0BatchForkJoin: fork-join inside stage 0 stays legal in a
// batch — a slot whose children ran inline retires on the fast branch, a
// stolen child promotes the slot onto the generic path — and the
// commutative sum proves no task is lost or duplicated.
func TestStage0BatchForkJoin(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 4
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
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

// TestStage0BatchMixedShapes: one batch may hold both kinds of slot. Every
// third iteration runs Continue(1) and Wait(2); the rest stay in stage 0
// and retire on the fast branch, so a slot that leaves stage 0 follows
// fast-retired ones on the same frame and must find their predecessor
// reference dropped and their completion published. The costClock lets
// the claim climb to 64 whatever the host. Outputs must equal the serial
// elision's, and the ordering invariant is checked as runFuzzProgram does.
func TestStage0BatchMixedShapes(t *testing.T) {
	const n = 3000
	run := func(launch func(cond func() bool, body func(*Iter))) ([]uint64, int64) {
		out := make([]uint64, n)
		progress := make([]atomic.Int64, n+1)
		var violations atomic.Int64
		i := 0
		launch(func() bool { i++; return i <= n }, func(it *Iter) {
			idx := int(it.Index())
			acc := uint64(idx)*0x9e3779b97f4a7c15 + 1
			if idx%3 == 0 {
				progress[idx].Store(1)
				it.Continue(1)
				acc = acc*31 + 1
				progress[idx].Store(2)
				it.Wait(2)
				if idx > 0 && progress[idx-1].Load() <= 2 {
					violations.Add(1)
				}
				acc = acc*31 + 2
			} else {
				acc = acc*1099511628211 + 7
			}
			out[idx] = acc
			progress[idx].Store(math.MaxInt64)
		})
		return out, violations.Load()
	}
	want, _ := run(func(cond func() bool, body func(*Iter)) { RunSerial(cond, body) })
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 2
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
	got, violations := run(func(cond func() bool, body func(*Iter)) { e.PipeWhile(cond, body) })
	if violations != 0 {
		t.Errorf("%d serial-stage ordering violations", violations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration %d: engine produced %#x, serial %#x", i, got[i], want[i])
		}
	}
	if s := e.Stats(); s.BatchedIterations == 0 {
		t.Error("BatchedIterations = 0, want > 0 (no batch ran)")
	}
	checkEngineDrained(t, e)
}
