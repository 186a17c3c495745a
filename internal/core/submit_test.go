package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitCompletes: the async path produces the same result as
// PipeWhile and reports a clean handle.
func TestSubmitCompletes(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 500
	var sum atomic.Int64
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= n }, func(it *Iter) {
		v := int64(i)
		it.Continue(1)
		sum.Add(v)
	})
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got, want := sum.Load(), int64(n*(n+1)/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	rep, err := h.Report()
	if err != nil || rep.Iterations != n {
		t.Fatalf("Report = %+v, %v", rep, err)
	}
	if s := e.Stats(); s.Submits != 1 || s.AbortedPipelines != 0 {
		t.Fatalf("stats = %+v", s)
	}
	checkEngineDrained(t, e)
}

// TestSubmitManyConcurrent: an engine serves many simultaneous handles.
func TestSubmitManyConcurrent(t *testing.T) {
	e := newTestEngine(t, 4)
	const pipelines, iters = 64, 50
	sums := make([]atomic.Int64, pipelines)
	handles := make([]*Handle, pipelines)
	for p := range handles {
		p := p
		i := 0
		handles[p] = e.Submit(context.Background(),
			func() bool { i++; return i <= iters },
			func(it *Iter) {
				it.Continue(1)
				sums[p].Add(1)
				it.Wait(2)
			})
	}
	for p, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("pipeline %d: %v", p, err)
		}
		if got := sums[p].Load(); got != iters {
			t.Fatalf("pipeline %d ran %d iterations, want %d", p, got, iters)
		}
	}
	checkEngineDrained(t, e)
}

// TestSubmitCancelPrompt: cancellation must complete within roughly one
// stage execution, not wait for the whole (here: unbounded) pipeline.
func TestSubmitCancelPrompt(t *testing.T) {
	e := newTestEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	var iters atomic.Int64
	h := e.Submit(ctx, func() bool { return true }, func(it *Iter) {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		iters.Add(1)
		it.Wait(1)
		it.Wait(2)
	})
	<-started
	cancel()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("canceled pipeline did not complete")
	}
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	rep, _ := h.Report()
	if rep.Iterations == 0 {
		t.Fatal("expected at least the first iteration to have started")
	}
	s := e.Stats()
	if s.CancelRequests != 1 || s.AbortedPipelines != 1 {
		t.Fatalf("stats = %+v", s)
	}
	checkEngineDrained(t, e)
}

// TestSubmitCancelReleasesThrottle: a cancel with the control frame parked
// on a full throttling window must release the window (iterations unwind,
// join drops, control drains) rather than deadlock.
func TestSubmitCancelReleasesThrottle(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	const k = 4
	// Iteration 0 holds stage 1 open, so iterations 1..k-1 park on their
	// stage-2 cross edges and the control frame parks on the full window.
	h := e.SubmitThrottled(ctx, k, func() bool { return true }, func(it *Iter) {
		it.Continue(1)
		if it.Index() == 0 {
			<-release
		}
		it.Wait(2)
	})
	if !settles(10*time.Second, func() bool { return e.Stats().ThrottleParks >= 1 }) {
		t.Fatal("control frame never parked on the throttling window")
	}
	cancel()
	close(release) // iteration 0 reaches its boundary; the abort cascades
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	checkEngineDrained(t, e)
}

// TestSubmitPrecanceled: a context canceled before Submit still yields a
// well-formed run — no condition evaluation, the context's error out.
func TestSubmitPrecanceled(t *testing.T) {
	e := newTestEngine(t, 2)
	cause := fmt.Errorf("tenant deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	condRan := false
	h := e.Submit(ctx, func() bool { condRan = true; return true }, func(it *Iter) {})
	if err := h.Wait(); !errors.Is(err, cause) {
		t.Fatalf("Wait = %v, want %v", err, cause)
	}
	if condRan {
		t.Fatal("loop condition ran despite pre-canceled context")
	}
	rep, _ := h.Report()
	if rep.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0", rep.Iterations)
	}
	checkEngineDrained(t, e)
}

// TestHandleCancel: cancellation without a context.
func TestHandleCancel(t *testing.T) {
	e := newTestEngine(t, 2)
	started := make(chan struct{})
	var once atomic.Bool
	h := e.Submit(nil, func() bool { return true }, func(it *Iter) {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		it.Wait(1)
	})
	<-started
	h.Cancel()
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	checkEngineDrained(t, e)
}

// TestSubmitBodyPanic: a panic in the body surfaces as *PanicError on the
// handle — with the panicking stack — and the engine remains usable.
func TestSubmitBodyPanic(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= 10 }, func(it *Iter) {
		it.Continue(1)
		if it.Index() == 3 {
			panic("boom at 3")
		}
	})
	err := h.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want *PanicError", err)
	}
	if pe.Value != "boom at 3" {
		t.Fatalf("Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "submit_test") {
		t.Fatalf("Stack does not name the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "boom at 3") {
		t.Fatalf("Error() = %q", pe.Error())
	}
	// Engine still serves new work after a captured panic.
	j := 0
	if err := e.Submit(context.Background(), func() bool { j++; return j <= 5 }, func(it *Iter) {}).Wait(); err != nil {
		t.Fatalf("post-panic Submit: %v", err)
	}
	checkEngineDrained(t, e)
}

// TestSubmitCondPanic: panics in the loop condition are captured too.
func TestSubmitCondPanic(t *testing.T) {
	e := newTestEngine(t, 2)
	h := e.Submit(context.Background(), func() bool { panic("bad cond") }, func(it *Iter) {})
	var pe *PanicError
	if err := h.Wait(); !errors.As(err, &pe) || pe.Value != "bad cond" {
		t.Fatalf("Wait = %v", err)
	}
	checkEngineDrained(t, e)
}

// TestSubmitChildPanic: a panic in a stolen fork-join child is rethrown at
// the sync and reaches the handle as *PanicError.
func TestSubmitChildPanic(t *testing.T) {
	e := newTestEngine(t, 4)
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= 20 }, func(it *Iter) {
		it.Continue(1)
		if it.Index() == 7 {
			it.Go(func() { panic("child boom") })
			it.Sync()
		}
	})
	var pe *PanicError
	if err := h.Wait(); !errors.As(err, &pe) || pe.Value != "child boom" {
		t.Fatalf("Wait = %v", err)
	}
	// The stack must be the panicking child's, not the owner's sync site.
	if !strings.Contains(string(pe.Stack), "submit_test") {
		t.Fatalf("Stack does not name the panicking closure:\n%s", pe.Stack)
	}
	checkEngineDrained(t, e)
}

// TestSubmitClosedEngine: submitting to a closed engine reports
// ErrEngineClosed instead of panicking.
func TestSubmitClosedEngine(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	e := NewEngine(opts)
	e.Close()
	h := e.Submit(context.Background(), func() bool { return true }, func(it *Iter) {})
	if err := h.Wait(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Wait = %v, want ErrEngineClosed", err)
	}
}

// TestSubmitThen pins the completion seam: then runs exactly once,
// before Wait returns, for a completed, a canceled and a panicking
// pipeline, and at once, with ErrEngineClosed, on a closed engine.
func TestSubmitThen(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, c := range map[string]struct {
		ctx  context.Context
		body func(*Iter)
		ok   bool
	}{
		"completed": {nil, func(*Iter) {}, true},
		"canceled":  {ctx, func(*Iter) {}, false},
		"panicked":  {nil, func(*Iter) { panic("boom") }, false},
	} {
		var calls atomic.Int64
		i := 0
		h := SubmitThen(e, c.ctx, 0, func() bool { i++; return i <= 3 }, c.body, func() { calls.Add(1) })
		if err := h.Wait(); (err == nil) != c.ok {
			t.Errorf("%s: Wait = %v", name, err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%s: then ran %d times before Wait returned, want 1", name, n)
		}
	}
	e.Close()
	called := false
	h := SubmitThen(e, nil, 0, func() bool { return true }, func(*Iter) {}, func() { called = true })
	if err := h.Wait(); err != ErrEngineClosed || !called {
		t.Errorf("closed engine: Wait = %v, then called %v; want ErrEngineClosed and true", err, called)
	}
}

// TestSubmitCloseRace: a Submit racing Engine.Close must never strand a
// queued pipeline — every handle resolves, either with the pipeline's
// result (the exiting workers drain it) or with ErrEngineClosed. A
// stranded frame shows up here as a Wait that never returns.
func TestSubmitCloseRace(t *testing.T) {
	for round := 0; round < 100; round++ {
		opts := DefaultOptions()
		opts.Workers = 2
		e := NewEngine(opts)
		const submitters = 4
		var handles [submitters]*Handle
		var counts [submitters]atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				j := 0
				handles[s] = e.Submit(nil, func() bool { j++; return j <= 3 }, func(it *Iter) {
					counts[s].Add(1)
				})
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
			for _, h := range handles {
				h.Wait()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a Submit racing Close left a handle hanging", round)
		}
		for s, h := range handles {
			switch err := h.Wait(); {
			case err == nil:
				if got := counts[s].Load(); got != 3 {
					t.Fatalf("round %d: successful pipeline %d ran %d iterations", round, s, got)
				}
			case errors.Is(err, ErrEngineClosed):
				if got := counts[s].Load(); got != 0 {
					t.Fatalf("round %d: rejected pipeline %d still ran %d iterations", round, s, got)
				}
			default:
				t.Fatalf("round %d: Wait = %v", round, err)
			}
		}
	}
}

// TestSubmitCancelNested: canceling a submission tears down pipelines
// nested inside its iterations, not just the root loop.
func TestSubmitCancelNested(t *testing.T) {
	e := newTestEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	var nestedIters atomic.Int64
	h := e.Submit(ctx, func() bool { return true }, func(it *Iter) {
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { j++; return true }, func(nit *Iter) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			nestedIters.Add(1)
			nit.Wait(1)
		})
	})
	<-started
	cancel()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not reach the nested pipeline")
	}
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	if nestedIters.Load() == 0 {
		t.Fatal("nested pipeline never ran")
	}
	checkEngineDrained(t, e)
}

// TestSubmitCancelJoinsChildren: an iteration canceled between Go and Sync
// must join its outstanding fork-join children before the handle reports
// completion — no user closure may run after Wait returns.
func TestSubmitCancelJoinsChildren(t *testing.T) {
	e := newTestEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var childrenDone atomic.Int64
	var spawned atomic.Int64
	ready := make(chan struct{})
	var once atomic.Bool
	h := e.Submit(ctx, func() bool { return true }, func(it *Iter) {
		it.Continue(1)
		for k := 0; k < 3; k++ {
			it.Go(func() {
				time.Sleep(200 * time.Microsecond)
				childrenDone.Add(1)
			})
		}
		spawned.Add(3)
		if once.CompareAndSwap(false, true) {
			close(ready)
		}
		it.Wait(2) // boundary between Go and the implicit sync
		it.Sync()
	})
	<-ready
	cancel()
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	if got, want := childrenDone.Load(), spawned.Load(); got != want {
		t.Fatalf("%d of %d children finished before Wait returned", got, want)
	}
	checkEngineDrained(t, e)
}

// TestSubmitCancelAfterCompletion: a cancel that races pipeline completion
// must yield either nil or the context error — never a hang or corruption.
func TestSubmitCancelAfterCompletion(t *testing.T) {
	e := newTestEngine(t, 2)
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		i := 0
		h := e.Submit(ctx, func() bool { i++; return i <= 3 }, func(it *Iter) { it.Continue(1) })
		cancel()
		if err := h.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Wait = %v", round, err)
		}
	}
	checkEngineDrained(t, e)
}
