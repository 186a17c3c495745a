package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Multi-tenant admission: the QoS layer in front of the scheduler.
//
// The MaxPending budget used to be a bare token channel, which had two
// problems for a multi-tenant server. First, every caller shared one
// anonymous budget, so a hot tenant flooding SubmitWait could starve
// everyone else's admissions indefinitely. Second, a channel send with
// many blocked senders wakes them in *random* order, so even two equally
// behaved callers had no FIFO guarantee — a fairness bug in its own
// right. The admitter below replaces the channel with an explicit
// weighted-fair queue:
//
//   - every engine has a registry of tenant classes (Options.Tenants plus
//     the always-present default class ""), each with a weight and an
//     optional per-class pending quota;
//   - a submission that cannot be admitted immediately parks in its
//     class's FIFO queue; freed capacity is handed to queued waiters by
//     deficit round-robin across classes (each backlogged class earns
//     `weight` admissions per round, so every class is served every round
//     and no class can be starved), FIFO within a class;
//   - a waiter is bounded only by its caller's context: when ctx is done
//     before a slot frees, the waiter is withdrawn with the context's
//     cause instead of waiting forever.
//
// All admitter state is guarded by one mutex. Admission is a per-pipeline
// event (not per-iteration), so this is far off the scheduler's hot path;
// the mutex also gives the per-class counters exact cross-field
// consistency, which the accounting invariant below relies on.
//
// Accounting invariant (per class, once no waiter is queued):
//
//	Submitted == Admitted + Rejected + Canceled
//
// with Pending and Waiting gauges both zero on a quiescent engine —
// pipeserve and the admission tests assert exactly this.

// DefaultTenant is the name of the implicit tenant class every engine
// has: Submit/SubmitWait without a tenant name admit through it.
const DefaultTenant = ""

// TenantClass configures one admission class of a multi-tenant engine
// (Options.Tenants). The zero value of every field is usable: weight
// defaults to 1, no per-class quota. How long a SubmitWait caller may
// wait for admission is its own context's business.
type TenantClass struct {
	// Name identifies the class to SubmitTenant/SubmitWaitTenant. The
	// empty name configures the default class used by plain Submit.
	Name string
	// Weight is the class's deficit-round-robin quantum: a backlogged
	// class is granted Weight admissions per round across the backlogged
	// set, so two classes with weights 3 and 1 split contended admission
	// capacity 3:1. Values below 1 are treated as 1.
	Weight int
	// MaxPending is the per-class pending quota: at most this many
	// admitted-but-unfinished pipelines, independent of the engine-wide
	// Options.MaxPending. 0 means bounded only by the global budget.
	MaxPending int
}

// TenantStats is the per-class admission counter snapshot
// (Engine.TenantStats). Counters are monotone within an engine lifetime;
// Pending and Waiting are gauges. Once a class has no queued waiter,
// Submitted == Admitted + Rejected + Canceled exactly.
type TenantStats struct {
	// Name, Weight, and MaxPending echo the class configuration (normalized).
	Name       string
	Weight     int
	MaxPending int
	// Submitted counts admission attempts: every Submit/SubmitWait routed
	// to this class, whatever the outcome.
	Submitted int64
	// Admitted counts submissions granted an admission slot.
	Admitted int64
	// Rejected counts submissions refused by the admitter: Submit calls
	// that found the budget full (ErrSaturated) and waiters released by
	// engine close (ErrEngineClosed).
	Rejected int64
	// Canceled counts SubmitWait submissions whose own context was
	// canceled or expired while they were queued for admission.
	Canceled int64
	// AdmissionWaitNs is the total time this class's submissions spent
	// queued for admission, in nanoseconds (the per-class share of
	// Stats.AdmissionWaitNs).
	AdmissionWaitNs int64
	// Pending is the gauge of admission slots currently held by this
	// class: pipelines admitted and not yet completed.
	Pending int64
	// Waiting is the gauge of SubmitWait callers currently queued for
	// admission.
	Waiting int64
}

// admitWaiter is one SubmitWait caller parked in its class queue. The
// result channel is buffered so the admitter can resolve a waiter without
// blocking while it holds the admission mutex: nil means admitted (the
// slot is charged to the waiter's class), non-nil is the rejection.
type admitWaiter struct {
	ch  chan error
	enq int64 // nowNs at enqueue
}

// tenantState is one class's admission state. Everything here is guarded
// by the admitter mutex.
type tenantState struct {
	cfg     TenantClass
	deficit int
	q       []*admitWaiter

	pending, waiting                       int64
	submitted, admitted, rejected, cancels int64
	waitNs                                 int64
}

// room reports whether the class quota admits one more pipeline.
func (c *tenantState) room() bool {
	return c.cfg.MaxPending == 0 || c.pending < int64(c.cfg.MaxPending)
}

// remove unlinks w from the class queue, preserving FIFO order, and
// reports whether it was still queued.
func (c *tenantState) remove(w *admitWaiter) bool {
	for i, qw := range c.q {
		if qw == w {
			c.q = append(c.q[:i], c.q[i+1:]...)
			return true
		}
	}
	return false
}

// admitter is the engine's admission queue. nil on engines with neither
// a MaxPending budget nor tenant classes — those admit everything
// unconditionally with zero overhead, as before.
type admitter struct {
	eng *Engine
	// limit is the engine-wide pending budget (Options.MaxPending);
	// 0 means bounded per class only.
	limit int

	mu      sync.Mutex
	closed  bool
	total   int // admitted and not yet completed, all classes
	classes []*tenantState
	byName  map[string]int
	// rr is the deficit-round-robin cursor: the class index the next
	// eligibility scan starts from. It advances past a class when that
	// class exhausts its deficit.
	rr int

	// totalGauge mirrors total for the lock-free Stats gauge read.
	totalGauge atomic.Int64
}

// newAdmitter builds the admission queue for the given options, or nil
// when no budget and no tenant classes are configured. Class
// configuration is normalized here: weights clamp to >= 1, negative
// quotas to 0, and a duplicate name overrides the earlier entry (so
// callers can re-tune the default class by configuring "").
func newAdmitter(e *Engine, opts *Options) *admitter {
	if opts.MaxPending <= 0 && len(opts.Tenants) == 0 {
		return nil
	}
	a := &admitter{eng: e, limit: opts.MaxPending, byName: make(map[string]int)}
	add := func(tc TenantClass) {
		if tc.Weight < 1 {
			tc.Weight = 1
		}
		if tc.MaxPending < 0 {
			tc.MaxPending = 0
		}
		if i, ok := a.byName[tc.Name]; ok {
			a.classes[i].cfg = tc
			return
		}
		a.byName[tc.Name] = len(a.classes)
		a.classes = append(a.classes, &tenantState{cfg: tc})
	}
	add(TenantClass{Name: DefaultTenant})
	for _, tc := range opts.Tenants {
		add(tc)
	}
	return a
}

// lookup resolves a tenant name to its class index.
func (a *admitter) lookup(name string) (int, bool) {
	ci, ok := a.byName[name] // byName is immutable after construction
	return ci, ok
}

// roomLocked reports whether class c can be admitted right now under
// both the global budget and its own quota.
func (a *admitter) roomLocked(c *tenantState) bool {
	return (a.limit == 0 || a.total < a.limit) && c.room()
}

// admitLocked charges one admission to class c.
func (a *admitter) admitLocked(c *tenantState) {
	a.total++
	a.totalGauge.Store(int64(a.total))
	c.pending++
	c.admitted++
}

// tryAdmit is the non-blocking admission policy (Submit): it admits
// immediately or fails with ErrSaturated (ErrEngineClosed on a closed
// engine) without queueing anything.
func (a *admitter) tryAdmit(ci int) error {
	c := a.classes[ci]
	a.mu.Lock()
	c.submitted++
	switch {
	case a.closed:
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return ErrEngineClosed
	case !a.roomLocked(c):
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return ErrSaturated
	}
	a.admitLocked(c)
	a.mu.Unlock()
	return nil
}

// waitAdmit is the blocking admission policy (SubmitWait): it admits
// immediately when there is room, otherwise parks in the class's FIFO
// queue until the fair-queue scheduler hands it a freed slot, the
// caller's context is done, or the engine closes. A nil return means
// admitted — the caller holds a slot it must release through
// finishTopLevel (or release it itself on the engine-closed launch path).
func (a *admitter) waitAdmit(ctx context.Context, ci int) error {
	c := a.classes[ci]
	a.mu.Lock()
	c.submitted++
	if a.closed {
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return ErrEngineClosed
	}
	if a.roomLocked(c) {
		a.admitLocked(c)
		a.mu.Unlock()
		return nil
	}
	w := &admitWaiter{ch: make(chan error, 1), enq: nowNs()}
	c.q = append(c.q, w)
	c.waiting++
	a.mu.Unlock()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case err := <-w.ch:
		// Resolved by the admitter: admitted (nil) or released by Close.
		return err
	case <-ctxDone:
		return a.cancelWait(c, w, context.Cause(ctx))
	}
}

// cancelWait resolves the race between the caller's context finishing
// and the admitter resolving the same waiter. If the waiter is still
// queued it is withdrawn, counted as canceled, and cause wins; if the
// admitter got there first, its buffered verdict stands — an admission
// in particular is kept (the caller proceeds to launch, and a dead
// context then aborts the pipeline through the ordinary cancellation
// path), so a slot is never released twice and never leaked.
func (a *admitter) cancelWait(c *tenantState, w *admitWaiter, cause error) error {
	a.mu.Lock()
	if !c.remove(w) {
		a.mu.Unlock()
		return <-w.ch // buffered: the admitter already resolved us
	}
	c.waiting--
	wait := nowNs() - w.enq
	c.waitNs += wait
	c.cancels++
	a.mu.Unlock()
	a.eng.stats.admissionWaitNs.Add(wait)
	a.eng.stats.saturations.Add(1)
	if cause == nil {
		cause = context.Canceled
	}
	return cause
}

// release returns class ci's admission slot at pipeline completion and
// hands the freed capacity to queued waiters under the fair policy.
func (a *admitter) release(ci int) {
	a.mu.Lock()
	a.total--
	a.totalGauge.Store(int64(a.total))
	a.classes[ci].pending--
	a.admitNextLocked()
	a.mu.Unlock()
}

// admitNextLocked drains freed capacity into the class queues: while the
// global budget has room, pick the next class under DRR and admit
// its head waiter. Called with the mutex held whenever capacity may have
// appeared (a release, including a quota-bound release that frees only
// class-local room).
func (a *admitter) admitNextLocked() {
	for a.limit == 0 || a.total < a.limit {
		c := a.pickLocked()
		if c == nil {
			return
		}
		w := c.q[0]
		c.q = c.q[1:]
		c.waiting--
		wait := nowNs() - w.enq
		c.waitNs += wait
		a.eng.stats.admissionWaitNs.Add(wait)
		a.admitLocked(c)
		w.ch <- nil
	}
}

// pickLocked selects the class whose head waiter is admitted next by
// deficit round-robin: the first class in ring order from the cursor that
// is backlogged, has per-class quota room, and has deficit left this
// round. Returns nil when no queued waiter is admissible (all queues
// empty, or every backlogged class is at its own quota).
func (a *admitter) pickLocked() *tenantState {
	n := len(a.classes)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := (a.rr + k) % n
			c := a.classes[i]
			if len(c.q) == 0 || !c.room() || c.deficit <= 0 {
				continue
			}
			c.deficit--
			if c.deficit == 0 {
				a.rr = (i + 1) % n
			}
			return c
		}
		// Every eligible class has spent this round's deficit: replenish
		// each backlogged class by its weight and rescan. No eligible
		// class at all means nothing is admissible.
		any := false
		for _, c := range a.classes {
			if len(c.q) > 0 && c.room() {
				c.deficit = c.cfg.Weight
				any = true
			}
		}
		if !any {
			return nil
		}
	}
	return nil
}

// close fails every queued waiter with ErrEngineClosed. Called by
// Engine.Close right after the closed flag flips, so no SubmitWait
// caller can block Close (waiters enqueued later observe the closed flag
// under the same mutex and never park).
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	now := nowNs()
	for _, c := range a.classes {
		for _, w := range c.q {
			c.waiting--
			wait := now - w.enq
			c.waitNs += wait
			c.rejected++
			a.eng.stats.admissionWaitNs.Add(wait)
			a.eng.stats.saturations.Add(1)
			w.ch <- ErrEngineClosed
		}
		c.q = nil
	}
	a.mu.Unlock()
}

// tenantStats snapshots every class under the mutex, so the counters of
// one snapshot are mutually consistent (Submitted == Admitted + Rejected
// + Canceled + Waiting holds within a single snapshot even mid-storm).
func (a *admitter) tenantStats() []TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantStats, len(a.classes))
	for i, c := range a.classes {
		out[i] = TenantStats{
			Name:            c.cfg.Name,
			Weight:          c.cfg.Weight,
			MaxPending:      c.cfg.MaxPending,
			Submitted:       c.submitted,
			Admitted:        c.admitted,
			Rejected:        c.rejected,
			Canceled:        c.cancels,
			AdmissionWaitNs: c.waitNs,
			Pending:         c.pending,
			Waiting:         c.waiting,
		}
	}
	return out
}

// TenantStats returns the per-class admission snapshot, one entry per
// configured tenant class (the default class "" first, then
// Options.Tenants in registration order). It returns nil on an engine
// with no admission control (no MaxPending budget and no tenant
// classes). See TenantStats (the type) for the accounting invariant.
func (e *Engine) TenantStats() []TenantStats {
	if e.adm == nil {
		return nil
	}
	return e.adm.tenantStats()
}
