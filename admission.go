package piper

import (
	"context"
	"fmt"

	"piper/internal/admit"
	"piper/internal/core"
)

// Submit starts a pipeline asynchronously: it queues the pipeline and
// returns immediately with a Handle for the result. If ctx is canceled
// before the pipeline completes, the run is aborted at stage boundaries —
// no further iterations start, live iterations unwind at their next Wait
// or Continue, and all frames drain back to their pools — and Wait
// returns the context's error. Unlike PipeWhile, a panic in cond or body
// does not propagate to the caller; it is captured as a *PanicError. ctx
// may be nil, meaning no cancellation. Under a MaxPending budget it
// applies the reject admission policy: a saturated engine fails the
// Handle immediately with ErrSaturated.
func (e *Engine) Submit(ctx context.Context, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, DefaultTenant, 0, cond, body, false)
}

// SubmitThrottled is Submit with an explicit throttling limit K
// (0 means the engine default).
func (e *Engine) SubmitThrottled(ctx context.Context, k int, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, DefaultTenant, k, cond, body, false)
}

// SubmitTenant is Submit admitted through the named tenant class
// (Tenants): the submission counts against that class's quota and QoS
// accounting instead of the default class's. An unconfigured name fails
// the Handle with ErrUnknownTenant.
func (e *Engine) SubmitTenant(ctx context.Context, tenant string, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, tenant, 0, cond, body, false)
}

// SubmitWait is Submit under the blocking admission policy: if the
// engine's MaxPending budget (or the class quota) is exhausted it joins
// the admission queue instead of rejecting. Queued submissions are
// admitted in FIFO order within a class and weighted-fairly across
// classes (see TenantClass). The wait is bounded only by ctx: it returns
// a failed Handle only if ctx is done first (the Handle reports the
// context's cause, e.g. context.DeadlineExceeded) or the engine closes
// while waiting (ErrEngineClosed). Without a budget (MaxPending 0, no
// tenant classes) it is identical to Submit.
func (e *Engine) SubmitWait(ctx context.Context, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, DefaultTenant, 0, cond, body, true)
}

// SubmitWaitTenant is SubmitWait admitted through the named tenant
// class. An unconfigured name fails the Handle with ErrUnknownTenant.
func (e *Engine) SubmitWaitTenant(ctx context.Context, tenant string, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, tenant, 0, cond, body, true)
}

// SubmitWaitThrottled is SubmitWait with an explicit throttling limit K
// (0 means the engine default).
func (e *Engine) SubmitWaitThrottled(ctx context.Context, k int, cond func() bool, body func(*Iter)) *Handle {
	return e.submit(ctx, DefaultTenant, k, cond, body, true)
}

// submit takes a slot of the tenant class from the engine's semaphore,
// if it has one, and launches the pipeline with the class's release as
// its completion callback: the slot returns before the Handle completes.
// The releases are built once, so an admission allocates no closure.
// block selects the blocking (SubmitWait) or reject (Submit) policy.
func (e *Engine) submit(ctx context.Context, tenant string, k int, cond func() bool, body func(*Iter), block bool) *Handle {
	if e.adm == nil {
		if tenant != DefaultTenant {
			return core.Refused(fmt.Errorf("%w: %q (engine has no tenant classes)", ErrUnknownTenant, tenant))
		}
		return core.SubmitThen(e.engine, ctx, k, cond, body, nil)
	}
	ci, ok := e.adm.Lookup(tenant)
	if !ok {
		return core.Refused(fmt.Errorf("%w: %q", ErrUnknownTenant, tenant))
	}
	var err error
	if block {
		err = e.adm.Acquire(ctx, ci)
	} else {
		err = e.adm.TryAcquire(ci)
	}
	if err == admit.ErrClosed {
		err = ErrEngineClosed
	}
	if err != nil {
		return core.Refused(err)
	}
	return core.SubmitThen(e.engine, ctx, k, cond, body, e.release[ci])
}

// TenantStats returns the per-class admission snapshot, one entry per
// tenant class (the default class "" first, then the Tenants classes in
// registration order), or nil on an engine with no admission control (no
// MaxPending budget and no tenant classes).
func (e *Engine) TenantStats() []TenantStats {
	if e.adm == nil {
		return nil
	}
	return e.adm.Stats()
}

// Stats returns a snapshot of the scheduler counters and gauges, with
// Saturations, AdmissionWaitNs and PendingAdmitted summed over one
// TenantStats snapshot taken after the scheduler's.
func (e *Engine) Stats() Stats {
	s := e.engine.Stats()
	for _, c := range e.TenantStats() {
		s.Saturations += c.Rejected + c.Canceled
		s.AdmissionWaitNs += c.AdmissionWaitNs
		s.PendingAdmitted += c.Pending
	}
	return s
}

// Close shuts the engine down; Wait every outstanding Handle first. It
// closes the admission semaphore before the scheduler, so queued
// SubmitWait callers and later submissions fail with ErrEngineClosed. A
// submission racing Close either completes or observes the closed
// engine; its work is never stranded.
func (e *Engine) Close() {
	if e.adm != nil {
		e.adm.Close()
	}
	e.engine.Close()
}
