package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Async submission and cancellation (the serving layer).
//
// PipeWhile is a blocking call with panic-on-failure semantics — fine for
// batch programs, unusable for a server that launches many pipelines on
// behalf of remote callers and needs to cancel stragglers. Submit starts a
// pipeline without blocking and returns a Handle; the pipeline reports
// completion, cancellation, or a captured panic through the Handle as an
// error instead of crossing goroutines.
//
// Cancellation is cooperative at stage boundaries, the natural preemption
// points of a pipe_while program: once an abort is requested, the control
// frame stops spawning iterations (the loop condition is not evaluated
// again), and every live iteration unwinds at its next Wait or Continue
// via a private panic sentinel that the batch's recover (runInlineBatch)
// catches. The unwind path is the ordinary retirement path — finishIter
// publishes stageDone (waking any successor parked on a cross edge, so
// aborts cascade down the chain instead of deadlocking it), outstanding fork-join
// children are joined first, the join counter releases the throttling
// window, and the frame recycles through its pool. Abort therefore
// composes with every runtime optimization for free: lazy enabling and
// tail-swap see a normally-retiring iteration, dependency folding is
// bypassed because stageDone dominates every cached value, and nested
// pipelines inherit the root's abort state so a cancel tears down the
// whole tree.
//
// The abort flag lives in the Handle, not the pipeline: pipelines recycle
// through a pool, and a context callback firing after completion must not
// scribble on an unrelated pipeline's state. The pipeline only borrows a
// pointer to the Handle's abortState, severed when the pipeline is
// released.

// ErrEngineClosed is reported through a Handle when Submit is called on an
// engine that has already been closed.
var ErrEngineClosed = errors.New("piper: engine closed")

// TenantClass configures one admission class (Options.Tenants). The
// engine never reads it; package piper converts it to an admit.Class.
type TenantClass struct {
	Name       string
	Weight     int
	MaxPending int
}

// PanicError wraps a panic raised by a pipeline's condition or body (or a
// fork-join child rethrown at its sync). It is reported through the
// submitting Handle instead of crossing goroutine boundaries.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the stack trace of the panicking goroutine, captured at
	// recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("piper: pipeline panicked: %v", e.Value)
}

// abortState is the cancellation word shared by a submitted pipeline and
// every pipeline nested under it. It outlives the (pooled) pipeline
// because it is owned by the Handle.
type abortState struct {
	err atomic.Pointer[error]
}

// request asks the pipeline tree to abort with the given error, reporting
// whether this call was the first. A non-nil err word is the request, so
// any reader that observes it also observes the error.
func (a *abortState) request(err error) bool {
	if err == nil {
		err = context.Canceled
	}
	return a.err.CompareAndSwap(nil, &err)
}

func (a *abortState) requested() bool { return a.err.Load() != nil }

func (a *abortState) loadErr() error {
	if p := a.err.Load(); p != nil {
		return *p
	}
	return context.Canceled
}

// abortUnwind is the sentinel panic value that unwinds an iteration body
// at a stage boundary after an abort request. It never escapes the
// runtime: the batch's recover (runInlineBatch) catches it and retires
// the frame through the normal path. User code that recovers indiscriminately can swallow
// it and delay (but not break) cancellation, like any cooperative scheme.
type abortUnwind struct{}

// Handle tracks one submitted pipeline. All methods are safe for
// concurrent use; Wait and Report may be called any number of times.
type Handle struct {
	eng  *Engine // nil for a Refused handle
	done chan struct{}
	// stop cancels the context.AfterFunc registration, if any.
	stop func() bool
	// abort is shared with the pipeline tree by pointer; it stays valid
	// after the pipeline recycles.
	abort abortState
	// then is SubmitThen's completion callback, or nil.
	then func()

	// rep and err are written by the completing worker before done is
	// closed (or by Refused).
	rep PipelineReport
	err error
}

// Wait blocks until the pipeline completes and returns nil on success,
// the context's error if the submission was canceled, a *PanicError if
// the condition or body panicked, or ErrEngineClosed.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Report is Wait returning the pipeline's space/shape report alongside
// the error. A canceled pipeline still reports the iterations it started.
func (h *Handle) Report() (PipelineReport, error) {
	<-h.done
	return h.rep, h.err
}

// Done returns a channel closed when the pipeline completes, for use in
// select loops.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Cancel requests cancellation independently of the submission context,
// as if the context had been canceled. It never blocks; completion is
// still observed through Wait.
func (h *Handle) Cancel() {
	if h.abort.request(context.Canceled) && h.eng != nil {
		h.eng.stats.cancelRequests.Add(1)
	}
}

// Submit starts a pipeline asynchronously and returns a Handle for its
// result. Canceling ctx (nil: never) aborts the run at stage boundaries,
// as described above, and Wait returns the context's error; a panic in
// cond or body is captured as a *PanicError.
func (e *Engine) Submit(ctx context.Context, cond func() bool, body func(*Iter)) *Handle {
	return e.SubmitThrottled(ctx, 0, cond, body)
}

// SubmitThrottled is Submit with an explicit throttling limit K
// (0 means the engine default).
func (e *Engine) SubmitThrottled(ctx context.Context, k int, cond func() bool, body func(*Iter)) *Handle {
	return SubmitThen(e, ctx, k, cond, body, nil)
}

// SubmitThen is e.SubmitThrottled with a completion callback: then, if
// not nil, runs exactly once, after the pipeline's result is set and
// before its Handle completes, or at once if the engine is closed. It is
// a function rather than a method so that a type embedding *Engine does
// not inherit it.
func SubmitThen(e *Engine, ctx context.Context, k int, cond func() bool, body func(*Iter), then func()) *Handle {
	// The read side of submitMu spans the closed check and the inject, so
	// a Submit racing Close either fails with ErrEngineClosed or has its
	// root frame published before the closed flag flips — where the
	// workers' drain-before-exit scan is guaranteed to find it.
	e.submitMu.RLock()
	if e.closed.Load() {
		e.submitMu.RUnlock()
		if then != nil {
			then()
		}
		return Refused(ErrEngineClosed)
	}
	h := &Handle{eng: e, done: make(chan struct{}), then: then}
	e.stats.submits.Add(1)
	pl := e.newPipeline(k, cond, body)
	pl.abort = &h.abort
	pl.sub = h
	if ctx != nil {
		if err := context.Cause(ctx); err != nil {
			// Canceled before launch: mark the abort now, but still run the
			// pipeline through the scheduler so completion, accounting, and
			// pool recycling follow the one and only lifecycle.
			if h.abort.request(err) {
				e.stats.cancelRequests.Add(1)
			}
		} else {
			h.stop = context.AfterFunc(ctx, func() {
				// Only the Handle's own abortState is touched here: the
				// pipeline may already have completed and recycled.
				if h.abort.request(context.Cause(ctx)) {
					e.stats.cancelRequests.Add(1)
				}
			})
		}
	}
	e.inject(pl.control)
	e.submitMu.RUnlock()
	return h
}

// Refused returns a Handle that has already completed with err: a
// submission turned away before it reached the scheduler. It belongs to
// no engine, so its Cancel counts no CancelRequests.
func Refused(err error) *Handle {
	h := &Handle{done: make(chan struct{}), err: err}
	close(h.done)
	return h
}

// finishTopLevel publishes the completion of a top-level pipeline through
// its Handle, a Submit's or a blocking launch's, on the worker that
// retired the control frame. It releases the pipeline before closing
// h.done, so an un-Waited Handle pins no scheduler state and a woken
// blocking caller finds no live pipeline of its own keeping this worker
// in its pre-park spin.
func (e *Engine) finishTopLevel(pl *pipeline) {
	h := pl.sub
	h.rep = PipelineReport{Iterations: pl.nextIndex, MaxLiveIterations: pl.maxLive, FinalGrain: pl.grain}
	switch {
	case pl.panicVal.Load() != nil:
		pb := pl.panicVal.Load()
		h.err = &PanicError{Value: pb.v, Stack: pb.stack}
		e.stats.abortedPipes.Add(1)
	case pl.abortRequested():
		h.err = pl.abort.loadErr()
		e.stats.abortedPipes.Add(1)
	}
	if h.stop != nil {
		h.stop()
		h.stop = nil
	}
	if h.then != nil {
		// Before publishing completion, so that whatever then frees is
		// free by the time this Handle's Wait returns.
		h.then()
	}
	e.releasePipeline(pl)
	close(h.done)
}
