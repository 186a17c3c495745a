package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Tests for the batch's single recovery site: one deferred recover in
// runInlineBatch serves every slot's body and every in-batch loop
// condition (see runInlineBatch). A panic or cancel at any slot of a
// pinned claim-16 batch — the first, a deferred one, the final one before
// or after it released the control frame — must be recorded under the
// panicking user function's stack, end the batch with the right slot
// count, and drain the engine, on one worker and on two.

const recoverClaim = 16

// panicInBatchCond and panicInBatchBody are the panic sites the reported
// stacks must name.
func panicInBatchCond() { panic("cond boom") }

func panicInBatchBody(index int64) { panic(fmt.Sprintf("body boom at %d", index)) }

// recoverEngines runs fn on a claim-16 engine of one and of two workers.
func recoverEngines(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			e := newEngineOpts(t, func(o *Options) {
				o.Workers, o.hooks = workers, &schedHooks{claim: pinClaim(recoverClaim)}
			})
			fn(t, e)
			checkEngineDrained(t, e)
		})
	}
}

// checkPanicError asserts that err is a *PanicError carrying want, whose
// stack names the function site.
func checkPanicError(t *testing.T, err error, want any, site string) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want a *PanicError", err)
	}
	if pe.Value != want {
		t.Errorf("PanicError.Value = %v, want %v", pe.Value, want)
	}
	if !strings.Contains(string(pe.Stack), site) {
		t.Errorf("PanicError stack does not name %s:\n%s", site, pe.Stack)
	}
}

// TestSingleRecoverCondPanic: the loop condition panics when called to
// start slot 5 of the first batch, inside the batch. It must not be
// evaluated again, and the pipeline reports exactly the five slots it
// started.
func TestSingleRecoverCondPanic(t *testing.T) {
	const k = 5
	recoverEngines(t, func(t *testing.T, e *Engine) {
		calls := 0
		h := e.Submit(context.Background(), func() bool {
			calls++
			if calls == k+1 {
				panicInBatchCond()
			}
			return true
		}, func(it *Iter) {
			it.Continue(1)
			it.Wait(2)
		})
		checkPanicError(t, h.Wait(), "cond boom", "panicInBatchCond")
		if calls != k+1 {
			t.Errorf("condition evaluated %d times, want %d (never again after its panic)", calls, k+1)
		}
		rep, _ := h.Report()
		if rep.Iterations != k {
			t.Errorf("Report.Iterations = %d, want the %d slots started", rep.Iterations, k)
		}
		if s := e.Stats(); s.Iterations != k {
			t.Errorf("Stats.Iterations = %d, want the %d slots started", s.Iterations, k)
		}
	})
}

// TestSingleRecoverBodyPanic: a body panics at the first slot, at a
// deferred slot, and at the final slot — once still in stage 0, once after
// its stage-0 exit released the control frame. Until that release the
// batch owns the pipeline, so exactly the slots up to the panicking one
// have started.
func TestSingleRecoverBodyPanic(t *testing.T) {
	cases := []struct {
		name     string
		at       int64
		inStage0 bool
	}{
		{"first", 0, false},
		{"deferred", 5, false},
		{"deferred-stage0", 5, true},
		{"final-stage0", recoverClaim - 1, true},
		{"final-released", recoverClaim - 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recoverEngines(t, func(t *testing.T, e *Engine) {
				i := 0
				h := e.Submit(context.Background(), func() bool { i++; return i <= 1000 }, func(it *Iter) {
					if it.Index() == c.at && c.inStage0 {
						panicInBatchBody(c.at)
					}
					it.Continue(1)
					if it.Index() == c.at {
						panicInBatchBody(c.at)
					}
					it.Wait(2)
				})
				checkPanicError(t, h.Wait(), fmt.Sprintf("body boom at %d", c.at), "panicInBatchBody")
				rep, _ := h.Report()
				released := c.at == recoverClaim-1 && !c.inStage0
				if got := rep.Iterations; got != c.at+1 && !(released && e.Workers() > 1 && got > c.at) {
					// A thief that took the released control frame may
					// have started more before the panic was recorded.
					t.Errorf("Report.Iterations = %d, want %d", got, c.at+1)
				}
			})
		})
	}
}

// TestSingleRecoverCancel: a cancel observed at slot 5's stage boundary
// unwinds that slot through the batch's recover. Exactly one iteration
// aborts, the batch starts no slot after it, and the Handle reports the
// cancel.
func TestSingleRecoverCancel(t *testing.T) {
	const k = 5
	recoverEngines(t, func(t *testing.T, e *Engine) {
		started, gate := make(chan struct{}), make(chan struct{})
		h := e.Submit(context.Background(), func() bool { return true }, func(it *Iter) {
			if it.Index() == k {
				close(started)
				<-gate
			}
			it.Continue(1)
			it.Wait(2)
		})
		<-started
		h.Cancel()
		close(gate)
		if err := h.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
		rep, _ := h.Report()
		if rep.Iterations != k+1 {
			t.Errorf("Report.Iterations = %d, want %d", rep.Iterations, k+1)
		}
		if s := e.Stats(); s.AbortedIterations != 1 {
			t.Errorf("AbortedIterations = %d, want 1", s.AbortedIterations)
		}
	})
}
