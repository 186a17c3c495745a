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
// via a private panic sentinel that runBody recovers. The unwind
// path is the ordinary retirement path — finishIter publishes
// stageDone (waking any successor parked on a cross edge, so aborts
// cascade down the chain instead of deadlocking it), outstanding fork-join
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

// ErrSaturated is reported through a Handle when Submit finds the engine's
// pending-pipeline budget (Options.MaxPending, or the tenant class's own
// quota) exhausted. It is the reject admission policy: the caller learns
// immediately, sheds or retries with its own policy, and no scheduler
// state was allocated. SubmitWait is the blocking alternative — it never
// reports ErrSaturated.
var ErrSaturated = errors.New("piper: engine saturated: pending-pipeline budget exhausted")

// ErrUnknownTenant is reported through a Handle when SubmitTenant names a
// tenant class the engine was not configured with (Options.Tenants). It
// is a configuration error, deliberately not a silent fallback to the
// default class: misrouted traffic would otherwise corrupt both tenants'
// QoS accounting.
var ErrUnknownTenant = errors.New("piper: unknown tenant class")

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
	flag atomic.Int32
	err  atomic.Pointer[error]
}

// request asks the pipeline tree to abort with the given error, reporting
// whether this call was the first. The error is published before the flag
// so any reader that observes the flag also observes the error.
func (a *abortState) request(err error) bool {
	if err == nil {
		err = context.Canceled
	}
	if a.err.CompareAndSwap(nil, &err) {
		a.flag.Store(1)
		return true
	}
	return false
}

func (a *abortState) requested() bool { return a.flag.Load() != 0 }

func (a *abortState) loadErr() error {
	if p := a.err.Load(); p != nil {
		return *p
	}
	return context.Canceled
}

// abortUnwind is the sentinel panic value that unwinds an iteration body
// at a stage boundary after an abort request. It never escapes the
// runtime: runBody recovers it and retires the frame through
// the normal path. User code that recovers indiscriminately can swallow
// it and delay (but not break) cancellation, like any cooperative scheme.
type abortUnwind struct{}

// Handle tracks one submitted pipeline. All methods are safe for
// concurrent use; Wait and Report may be called any number of times.
type Handle struct {
	eng  *Engine
	done chan struct{}
	// stop cancels the context.AfterFunc registration, if any.
	stop func() bool
	// abort is shared with the pipeline tree by pointer; it stays valid
	// after the pipeline recycles.
	abort abortState

	// rep and err are written by the completing worker before done is
	// closed (or by Submit itself for an engine-closed handle).
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

// Submit starts a pipeline asynchronously: it queues the pipeline and
// returns immediately with a Handle for the result. If ctx is canceled
// before the pipeline completes, the run is aborted at stage boundaries —
// no further iterations start, live iterations unwind at their next Wait
// or Continue (waking any successors parked on their cross edges),
// throttling tokens are released, and all frames drain back to their
// pools — and Wait returns the context's error. Unlike PipeWhile, a panic
// in cond or body does not propagate to the caller; it is captured as a
// *PanicError. ctx may be nil, meaning no cancellation.
func (e *Engine) Submit(ctx context.Context, cond func() bool, body func(*Iter)) *Handle {
	return e.SubmitThrottled(ctx, 0, cond, body)
}

// SubmitThrottled is Submit with an explicit throttling limit K
// (0 means the engine default). Under a MaxPending budget it applies the
// reject admission policy: a saturated engine fails the Handle immediately
// with ErrSaturated.
func (e *Engine) SubmitThrottled(ctx context.Context, k int, cond func() bool, body func(*Iter)) *Handle {
	return e.submitClass(ctx, DefaultTenant, k, cond, body, false)
}

// SubmitTenant is Submit admitted through the named tenant class
// (Options.Tenants): the submission counts against that class's quota
// and QoS accounting instead of the default class's. An unconfigured
// name fails the Handle with ErrUnknownTenant.
func (e *Engine) SubmitTenant(ctx context.Context, tenant string, cond func() bool, body func(*Iter)) *Handle {
	return e.submitClass(ctx, tenant, 0, cond, body, false)
}

// SubmitWait is Submit under the blocking admission policy: if the
// engine's MaxPending budget (or the class quota) is exhausted it joins
// the admission queue instead of rejecting. Queued submissions are
// admitted in FIFO order within a class and weighted-fairly across
// classes (see TenantClass). The wait is bounded only by ctx: it returns
// a failed Handle only if ctx is done first (the Handle reports the
// context's cause, e.g. context.DeadlineExceeded) or the engine closes
// while waiting (ErrEngineClosed). Without a budget (MaxPending 0, no tenant classes)
// it is identical to Submit.
func (e *Engine) SubmitWait(ctx context.Context, cond func() bool, body func(*Iter)) *Handle {
	return e.SubmitWaitThrottled(ctx, 0, cond, body)
}

// SubmitWaitTenant is SubmitWait admitted through the named tenant
// class. An unconfigured name fails the Handle with ErrUnknownTenant.
func (e *Engine) SubmitWaitTenant(ctx context.Context, tenant string, cond func() bool, body func(*Iter)) *Handle {
	return e.submitClass(ctx, tenant, 0, cond, body, true)
}

// SubmitWaitThrottled is SubmitWait with an explicit throttling limit K
// (0 means the engine default).
func (e *Engine) SubmitWaitThrottled(ctx context.Context, k int, cond func() bool, body func(*Iter)) *Handle {
	return e.submitClass(ctx, DefaultTenant, k, cond, body, true)
}

// submitClass routes a submission through the engine's admission queue
// (when one is configured) and launches it. block selects the blocking
// (SubmitWait) versus reject (Submit) admission policy.
func (e *Engine) submitClass(ctx context.Context, tenant string, k int, cond func() bool, body func(*Iter), block bool) *Handle {
	h := &Handle{eng: e, done: make(chan struct{})}
	ci, admitted := 0, false
	if e.adm != nil {
		var ok bool
		if ci, ok = e.adm.lookup(tenant); !ok {
			h.err = fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
			close(h.done)
			return h
		}
		var err error
		if block {
			err = e.adm.waitAdmit(ctx, ci)
		} else {
			err = e.adm.tryAdmit(ci)
		}
		if err != nil {
			h.err = err
			close(h.done)
			return h
		}
		admitted = true
	} else if tenant != DefaultTenant {
		h.err = fmt.Errorf("%w: %q (engine has no tenant classes)", ErrUnknownTenant, tenant)
		close(h.done)
		return h
	}
	return e.submitAdmitted(ctx, k, cond, body, h, admitted, ci)
}

// submitAdmitted launches an already-admitted submission. admitted records
// whether h holds an admission slot of tenant class ci; the slot is
// released by finishTopLevel at completion, or right here if the engine
// turns out to be closed.
func (e *Engine) submitAdmitted(ctx context.Context, k int, cond func() bool, body func(*Iter), h *Handle, admitted bool, ci int) *Handle {
	// The read side of submitMu spans the closed check and the inject, so
	// a Submit racing Close either fails with ErrEngineClosed or has its
	// root frame published before the closed flag flips — where the
	// workers' drain-before-exit scan is guaranteed to find it.
	e.submitMu.RLock()
	if e.closed.Load() {
		e.submitMu.RUnlock()
		if admitted {
			e.adm.release(ci)
		}
		h.err = ErrEngineClosed
		close(h.done)
		return h
	}
	e.stats.submits.Add(1)
	pl := e.newPipeline(k, cond, body)
	pl.abort = &h.abort
	pl.sub = h
	pl.admitted = admitted
	pl.tenant = ci
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
	if pl.admitted {
		// Release the admission slot before publishing completion, so a
		// SubmitWait caller blocked on the budget is admitted no later
		// than this handle's Wait returns.
		e.adm.release(pl.tenant)
	}
	e.releasePipeline(pl)
	close(h.done)
}
