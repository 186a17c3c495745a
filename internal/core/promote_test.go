package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for promotion, an iteration's first block: iterations must
// promote exactly when they block, and the suspended protocol must compose
// with cancellation, nesting, and throttling.

// TestEmptyPipelineZeroPromotions pins the acceptance invariant of the
// inline fast path: a pipeline whose iterations never block runs entirely
// inline — every iteration started as a direct call, zero promotions,
// zero cross suspends.
func TestEmptyPipelineZeroPromotions(t *testing.T) {
	e := newTestEngine(t, 1)
	const n = 5000
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) { i++ })
	s := e.Stats()
	if s.Iterations != n {
		t.Errorf("Iterations = %d, want %d", s.Iterations, n)
	}
	if s.Promotions != 0 {
		t.Errorf("Promotions = %d, want 0 for an empty serial pipeline", s.Promotions)
	}
	if s.CrossSuspends != 0 {
		t.Errorf("CrossSuspends = %d, want 0", s.CrossSuspends)
	}
}

// TestPromotionOnBlockedCrossEdge forces a real suspension: iteration 0
// holds stage 1 on a gate, so iteration 1's Wait cannot resolve inline
// and must promote and park on the cross edge. The gate opens only after
// a promotion is observed (bounded wait, so a surprising schedule
// degrades the test's strength rather than deadlocking it); order and
// results must come out as if nothing special happened.
func TestPromotionOnBlockedCrossEdge(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := make(chan struct{})
	go func() {
		settles(5*time.Second, func() bool { return e.Stats().Promotions > 0 })
		close(gate)
	}()
	var order []int64
	i := 0
	e.PipeWhile(func() bool { return i < 8 }, func(it *Iter) {
		i++
		it.Continue(1)
		if it.Index() == 0 {
			<-gate
		}
		it.Wait(2)
		order = append(order, it.Index())
	})
	if len(order) != 8 {
		t.Fatalf("%d outputs, want 8", len(order))
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("serial stage order violated at %d: %d", k, v)
		}
	}
	if e.Stats().Promotions == 0 {
		t.Error("blocked cross edge produced no promotion")
	}
	checkEngineDrained(t, e)
}

// TestPromotionRacingCancellation drives the satellite edge case: the
// abort word is set while an iteration sits between its failed inline
// cross-edge check and the promoted park. Iteration 0 blocks stage 1 on a
// gate; iteration 1 promotes and parks on the cross edge; the submission
// is then canceled and the gate opened. Iteration 0 unwinds at its next
// stage boundary and publishes stageDone, which wakes iteration 1 into
// its post-park abortCheck — both must retire through the abort path and
// drain back to the pools.
func TestPromotionRacingCancellation(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := make(chan struct{})
	reached := make(chan struct{})
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= 16 }, func(it *Iter) {
		it.Continue(1)
		if it.Index() == 0 {
			close(reached)
			<-gate
		}
		it.Wait(2)
	})
	<-reached
	// Give iteration 1 a chance to reach its Wait and promote; then cancel
	// while it is parked (or mid-promotion — both orderings are valid and
	// both must drain).
	settles(2*time.Second, func() bool {
		s := e.Stats()
		return s.Promotions > 0 || s.CrossSuspends > 0
	})
	h.Cancel()
	close(gate)
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.AbortedIterations == 0 {
		t.Error("no iterations recorded as aborted")
	}
	checkEngineDrained(t, e)
}

// TestPromotionInsideNestedPipeline: an outer iteration promotes when its
// nested pipe_while forces a scope suspension, and the nested pipeline's
// own iterations run inline in turn. The whole composition must produce
// oracle results and drain.
func TestPromotionInsideNestedPipeline(t *testing.T) {
	e := newTestEngine(t, 2)
	const n, m = 12, 5
	var sum atomic.Int64
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { j++; return j <= m }, func(nit *Iter) {
			jj := int64(j)
			nit.Continue(1)
			sum.Add(it.Index()*100 + jj)
		})
		it.Wait(2)
	})
	var want int64
	for a := int64(0); a < n; a++ {
		for b := int64(1); b <= m; b++ {
			want += a*100 + b
		}
	}
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	checkEngineDrained(t, e)
}

// TestPromotionWhileThrottleExhausted: with K=2 and iteration 0 gated,
// the pipeline saturates its throttle window (the control frame parks
// throttled) while a later iteration promotes and parks on a cross edge.
// The promoted frame's retirement must release the throttled control
// frame through the ordinary join.leave path and the run must complete
// in order within the window bound.
func TestPromotionWhileThrottleExhausted(t *testing.T) {
	e := newTestEngine(t, 2)
	gate := make(chan struct{})
	go func() {
		settles(5*time.Second, func() bool {
			s := e.Stats()
			return s.ThrottleParks > 0 && s.Promotions > 0
		})
		close(gate)
	}()
	var order []int64
	i := 0
	rep := e.RunPipeline(2, func() bool { return i < 10 }, func(it *Iter) {
		i++
		it.Continue(1)
		if it.Index() == 0 {
			<-gate
		}
		it.Wait(2)
		order = append(order, it.Index())
	})
	if len(order) != 10 {
		t.Fatalf("%d outputs, want 10", len(order))
	}
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d: %d", k, v)
		}
	}
	if rep.MaxLiveIterations > 2 {
		t.Fatalf("MaxLiveIterations = %d exceeds K=2", rep.MaxLiveIterations)
	}
	checkEngineDrained(t, e)
}
