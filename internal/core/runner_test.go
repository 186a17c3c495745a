package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Tests for the runner pool: bodies run on pooled iter.Pull coroutines,
// suspend by yielding them, and may be resumed by any worker.

// idleRunners counts the runners not held by a parked frame: each worker's
// own and the spare stack. Call only after Close, whose wg.Wait orders the
// workers' last writes before these reads.
func idleRunners(e *Engine) int64 {
	n := int64(len(e.spareRunners))
	for _, w := range e.workers {
		if w.r != nil {
			n++
		}
	}
	return n
}

// checkRunnersIdle asserts that every runner e ever made came back to a
// worker or the spare stack, so Close stopped them all.
func checkRunnersIdle(t *testing.T, e *Engine) {
	t.Helper()
	if idle, made := idleRunners(e), e.runnersCreated.Load(); idle != made {
		t.Errorf("%d runners idle at Close, %d made: a parked frame kept one", idle, made)
	}
}

// panicAfterResume is the panic site TestPanicAfterResumeOnAnotherWorker
// looks for in the reported stack.
func panicAfterResume() {
	panic("boom after resume")
}

// TestPanicAfterResumeOnAnotherWorker: a body that panics after it
// suspended and was resumed by a different worker surfaces a *PanicError
// whose stack names the body's panic site. Iteration 0 holds stage 1 until
// iteration 1 is parked on its Wait(1); which worker resumes iteration 1 is
// up to the schedule, so the scenario repeats until one resume crossed
// workers.
func TestPanicAfterResumeOnAnotherWorker(t *testing.T) {
	e := newTestEngine(t, 2)
	for attempt := 0; attempt < 200; attempt++ {
		var i int64
		var first *frame
		h := e.Submit(context.Background(), func() bool { i++; return i <= 2 }, func(it *Iter) {
			if it.Index() == 0 {
				first = it.f
				it.Continue(1)
				settles(5*time.Second, func() bool {
					nx := first.next.Load()
					return nx != nil && nx.status.Load() == statusWaitCross
				})
				return
			}
			before := it.f.w
			it.Wait(1)
			if it.f.w != before {
				panicAfterResume()
			}
		})
		err := h.Wait()
		if err == nil {
			continue // resumed on the worker it parked on; try again
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Wait = %v, want a *PanicError", err)
		}
		if !strings.Contains(string(pe.Stack), "panicAfterResume") {
			t.Fatalf("PanicError stack does not name the body's panic site:\n%s", pe.Stack)
		}
		checkEngineDrained(t, e)
		return
	}
	t.Fatal("no iteration was resumed by a worker other than the one it parked on")
}

// TestCancelWhileParkedOnRunner: Handle.Cancel while a frame is parked on
// a cross edge, holding its runner. Opening the gate lets iteration 0
// unwind at its next stage boundary and publish stageDone, which wakes the
// parked frame into its abortCheck; it unwinds through abortUnwind, its
// runner comes back to an idle stack, and the engine drains.
func TestCancelWhileParkedOnRunner(t *testing.T) {
	base := goroutineBaseline()
	opts := DefaultOptions()
	opts.Workers = 2
	e := NewEngine(opts)
	gate := make(chan struct{})
	i := 0
	h := e.Submit(context.Background(), func() bool { i++; return i <= 8 }, func(it *Iter) {
		it.Continue(1)
		if it.Index() == 0 {
			<-gate
		}
		it.Wait(2)
	})
	if !settles(5*time.Second, func() bool { return e.Stats().CrossSuspends > 0 }) {
		t.Fatal("no iteration parked behind the gated one")
	}
	h.Cancel()
	close(gate)
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if e.Stats().AbortedIterations == 0 {
		t.Error("no iteration unwound through abortUnwind")
	}
	checkEngineDrained(t, e)
	e.Close()
	checkRunnersIdle(t, e)
	checkGoroutinesSettle(t, base, 0)
}

// TestRunnerPoolBound: across many suspension-heavy pipelines the engine
// makes at most Workers runners plus one per frame parked at the peak, and
// Close leaves no goroutine behind — no worker, no runner. Parked frames
// are live, so the pipelines' MaxLiveIterations bounds their peak.
func TestRunnerPoolBound(t *testing.T) {
	base := goroutineBaseline()
	opts := DefaultOptions()
	opts.Workers = 4
	e := NewEngine(opts)
	var maxLive int64
	for rep := 0; rep < 20; rep++ {
		pre := e.Stats().Promotions
		gate := make(chan struct{})
		i := 0
		done := make(chan PipelineReport)
		go func() {
			done <- e.RunPipeline(0, func() bool { return i < 30 }, func(it *Iter) {
				i++
				it.Continue(1)
				if it.Index() == 0 {
					<-gate
				}
				it.Wait(2)
			})
		}()
		// Let successors pile up behind the gated iteration, then release.
		settles(2*time.Second, func() bool {
			return e.Stats().Promotions > pre
		})
		close(gate)
		maxLive = max(maxLive, (<-done).MaxLiveIterations)
	}
	if e.Stats().Promotions == 0 {
		t.Error("gated pipelines produced no promotions")
	}
	checkEngineDrained(t, e)
	e.Close()
	made := e.runnersCreated.Load()
	t.Logf("runners made: %d (Workers %d, peak live iterations %d)", made, opts.Workers, maxLive)
	if bound := int64(opts.Workers) + maxLive; made > bound {
		t.Errorf("%d runners made, want at most Workers + peak live = %d", made, bound)
	}
	checkRunnersIdle(t, e)
	checkGoroutinesSettle(t, base, 0)
}
