// Package admit is piper's admission layer: a counting semaphore whose
// slots are shared by named classes under weighted-fair queueing.
//
// A Sem has a global limit of held slots and a set of classes, each with
// a weight and an optional quota of its own. A caller that finds no free
// slot either fails at once (TryAcquire) or joins its class's FIFO queue
// (Acquire) until a Release hands it a slot, its context is done, or the
// semaphore closes. Freed slots go to queued waiters by deficit
// round-robin across classes: each backlogged class earns Weight
// admissions per round, so two classes weighted 3 and 1 split contended
// slots 3:1 and every backlogged class is served every round.
//
// All state is guarded by one mutex; admission is a per-pipeline event,
// far off the scheduler's per-iteration paths, and the mutex keeps each
// class's counters mutually consistent. Per class, every Stats snapshot
// satisfies
//
//	Submitted == Admitted + Rejected + Canceled + Waiting
//
// The package starts no goroutines and reads time.Now directly, so a
// testing/synctest bubble controls every wait it measures.
package admit

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The errors name the engine, the semaphore's one user: package piper
// re-exports ErrSaturated and reports ErrClosed as its ErrEngineClosed.
var (
	// ErrSaturated is TryAcquire's refusal: the limit or the class quota
	// has no free slot.
	ErrSaturated = errors.New("piper: engine saturated: pending-pipeline budget exhausted")
	// ErrClosed is reported by every acquire after Close, and to every
	// waiter queued when Close ran.
	ErrClosed = errors.New("piper: engine closed")
)

// Class configures one admission class. The zero value of every field is
// usable: weight defaults to 1, no per-class quota. How long an Acquire
// caller may wait is its own context's business.
type Class struct {
	// Name identifies the class to Lookup. An engine routes
	// SubmitTenant/SubmitWaitTenant by it; its default class is "".
	Name string
	// Weight is the class's deficit-round-robin quantum: a backlogged
	// class is granted Weight admissions per round across the backlogged
	// set. Values below 1 are treated as 1.
	Weight int
	// MaxPending is the per-class quota: at most this many slots held by
	// the class at once, independent of the global limit. 0 means bounded
	// only by the global limit.
	MaxPending int
}

// ClassStats is one class's admission snapshot. Counters are monotone;
// Pending and Waiting are gauges.
type ClassStats struct {
	// Name, Weight, and MaxPending echo the class configuration (normalized).
	Name       string
	Weight     int
	MaxPending int
	// Submitted counts acquire attempts, whatever the outcome.
	Submitted int64
	// Admitted counts attempts granted a slot.
	Admitted int64
	// Rejected counts attempts refused by the semaphore: TryAcquire calls
	// that found no slot (ErrSaturated) and acquires refused or waiters
	// released by Close (ErrClosed).
	Rejected int64
	// Canceled counts waiters withdrawn because their context was done.
	Canceled int64
	// AdmissionWaitNs is the total time this class's waiters spent
	// queued, in nanoseconds.
	AdmissionWaitNs int64
	// Pending is the gauge of slots currently held by the class.
	Pending int64
	// Waiting is the gauge of callers currently queued.
	Waiting int64
}

// waiter is one Acquire caller queued in its class. The verdict channel
// is buffered so the semaphore resolves a waiter without blocking under
// its mutex: nil means admitted, non-nil is the refusal.
type waiter struct {
	ch  chan error
	enq time.Time
}

// class is one class's queue and counters, guarded by the Sem mutex.
type class struct {
	st      ClassStats
	deficit int
	q       []*waiter
}

// Sem is a weighted-fair counting semaphore with classes. Class indexes
// come from Lookup and are stable for the Sem's lifetime.
type Sem struct {
	limit  int
	byName map[string]int // immutable after New

	mu      sync.Mutex
	closed  bool
	classes []*class
	// rr is the deficit-round-robin cursor: the class index the next
	// scan starts from. It moves past a class that spends its deficit.
	rr int
	// held counts slots held across all classes; written under mu, read
	// lock-free by Held.
	held atomic.Int64
}

// New returns a semaphore of limit slots (limit <= 0: bounded by class
// quotas only) shared by classes, in ring order. Configuration is
// normalized: weights below 1 become 1, negative quotas 0, and a repeated
// name re-configures the earlier class in place.
func New(limit int, classes []Class) *Sem {
	s := &Sem{limit: limit, byName: make(map[string]int)}
	for _, cfg := range classes {
		st := ClassStats{Name: cfg.Name, Weight: max(cfg.Weight, 1), MaxPending: max(cfg.MaxPending, 0)}
		if i, ok := s.byName[cfg.Name]; ok {
			s.classes[i].st = st
			continue
		}
		s.byName[cfg.Name] = len(s.classes)
		s.classes = append(s.classes, &class{st: st})
	}
	return s
}

// Lookup resolves a class name to its index.
func (s *Sem) Lookup(name string) (int, bool) {
	ci, ok := s.byName[name]
	return ci, ok
}

// Held reports the slots currently held across all classes.
func (s *Sem) Held() int64 { return s.held.Load() }

// TryAcquire takes a slot of class ci if one is free and otherwise fails
// with ErrSaturated (ErrClosed after Close), queueing nothing.
func (s *Sem) TryAcquire(ci int) error {
	_, err := s.acquire(ci, false)
	return err
}

// Acquire takes a slot of class ci, queueing for one if none is free. It
// returns nil once admitted, the context's cause if ctx is done first
// (ctx may be nil: no bound), or ErrClosed if the semaphore closes. An
// admitted caller owes one Release(ci).
func (s *Sem) Acquire(ctx context.Context, ci int) error {
	w, err := s.acquire(ci, true)
	if w == nil {
		return err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case err := <-w.ch:
		return err
	case <-done:
		return s.withdraw(ci, w, context.Cause(ctx))
	}
}

// acquire is the one admission path. It counts the attempt and admits it
// at once when the class has room; otherwise it rejects the attempt or,
// if queue is set, parks a waiter at the tail of the class queue and
// returns it.
func (s *Sem) acquire(ci int, queue bool) (*waiter, error) {
	c := s.classes[ci]
	s.mu.Lock()
	defer s.mu.Unlock()
	c.st.Submitted++
	switch {
	case s.closed:
		c.st.Rejected++
		return nil, ErrClosed
	case s.roomLocked(c):
		s.admitLocked(c)
		return nil, nil
	case !queue:
		c.st.Rejected++
		return nil, ErrSaturated
	}
	w := &waiter{ch: make(chan error, 1), enq: time.Now()}
	c.q = append(c.q, w)
	c.st.Waiting++
	return w, nil
}

// withdraw takes w out of class ci's queue for a caller whose context
// ended with cause, and returns w's verdict. If a Release or Close
// resolved w first, that verdict stands: an admission in particular is
// kept, so the caller holds the slot and no slot is released twice or
// leaked. It never blocks.
func (s *Sem) withdraw(ci int, w *waiter, cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	c := s.classes[ci]
	s.mu.Lock()
	if i := slices.Index(c.q, w); i >= 0 {
		c.q = slices.Delete(c.q, i, i+1)
		c.st.Canceled++
		s.resolveLocked(c, w, cause)
	}
	s.mu.Unlock()
	return <-w.ch
}

// Release returns a slot of class ci and hands the freed capacity to
// queued waiters.
func (s *Sem) Release(ci int) {
	s.mu.Lock()
	s.held.Add(-1)
	s.classes[ci].st.Pending--
	for c := s.pickLocked(); c != nil; c = s.pickLocked() {
		w := c.q[0]
		c.q = c.q[1:]
		s.admitLocked(c)
		s.resolveLocked(c, w, nil)
	}
	s.mu.Unlock()
}

// Close refuses every later acquire with ErrClosed and resolves every
// queued waiter with it.
func (s *Sem) Close() {
	s.mu.Lock()
	s.closed = true
	for _, c := range s.classes {
		for _, w := range c.q {
			c.st.Rejected++
			s.resolveLocked(c, w, ErrClosed)
		}
		c.q = nil
	}
	s.mu.Unlock()
}

// Stats snapshots every class, in ring order, under the mutex.
func (s *Sem) Stats() []ClassStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ClassStats, len(s.classes))
	for i, c := range s.classes {
		out[i] = c.st
	}
	return out
}

// roomLocked reports whether class c may take a slot now: the limit and
// c's own quota both have one free.
func (s *Sem) roomLocked(c *class) bool {
	return (s.limit <= 0 || s.held.Load() < int64(s.limit)) &&
		(c.st.MaxPending == 0 || c.st.Pending < int64(c.st.MaxPending))
}

// admitLocked charges one slot to class c.
func (s *Sem) admitLocked(c *class) {
	s.held.Add(1)
	c.st.Pending++
	c.st.Admitted++
}

// resolveLocked settles waiter w, already unlinked from c's queue and
// counted by the path that unlinked it (admitted by Release, rejected by
// Close, canceled by withdraw), and sends it verdict err: nil admits it.
// The verdict goes to w's buffered channel.
func (s *Sem) resolveLocked(c *class, w *waiter, err error) {
	c.st.Waiting--
	c.st.AdmissionWaitNs += int64(time.Since(w.enq))
	w.ch <- err
}

// pickLocked returns the class whose head waiter is admitted next: the
// first class in ring order from the cursor that is backlogged, has room
// and has deficit left this round. When every such class has spent its
// deficit, each backlogged class with room is replenished by its weight
// and the scan repeats. nil means no queued waiter is admissible.
func (s *Sem) pickLocked() *class {
	n := len(s.classes)
	for range 2 {
		for k := range n {
			i := (s.rr + k) % n
			c := s.classes[i]
			if len(c.q) == 0 || c.deficit <= 0 || !s.roomLocked(c) {
				continue
			}
			if c.deficit--; c.deficit == 0 {
				s.rr = (i + 1) % n
			}
			return c
		}
		eligible := false
		for _, c := range s.classes {
			if len(c.q) > 0 && s.roomLocked(c) {
				c.deficit = c.st.Weight
				eligible = true
			}
		}
		if !eligible {
			return nil
		}
	}
	return nil
}
