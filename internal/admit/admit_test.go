package admit

import (
	"context"
	"errors"
	"testing"
	"time"
)

// enqueue runs the queueing half of Acquire and fails the test unless it
// parked a waiter.
func enqueue(t *testing.T, s *Sem, ci int) *waiter {
	t.Helper()
	w, err := s.acquire(ci, true)
	if w == nil {
		t.Fatalf("class %d: acquire admitted or refused at once (err %v), want queued", ci, err)
	}
	return w
}

// peek reports w's verdict without consuming it.
func peek(w *waiter) (error, bool) {
	if len(w.ch) == 0 {
		return nil, false
	}
	err := <-w.ch
	w.ch <- err
	return err, true
}

// checkBalanced fails the test unless every class satisfies the
// accounting identity.
func checkBalanced(t *testing.T, s *Sem) {
	t.Helper()
	for _, c := range s.Stats() {
		if c.Submitted != c.Admitted+c.Rejected+c.Canceled+c.Waiting {
			t.Fatalf("class %q: %+v, want Submitted == Admitted+Rejected+Canceled+Waiting", c.Name, c)
		}
	}
}

// TestSemFIFO pins FIFO order within a class: waiters queued behind a
// full limit are admitted in arrival order, one per Release.
func TestSemFIFO(t *testing.T) {
	s := New(1, []Class{{}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	const n = 12
	ws := make([]*waiter, n)
	for i := range ws {
		ws[i] = enqueue(t, s, 0)
	}
	for i := range ws {
		for j, w := range ws {
			if _, done := peek(w); done != (j < i) {
				t.Fatalf("after %d releases: waiter %d resolved = %v", i, j, done)
			}
		}
		s.Release(0)
		if err, ok := peek(ws[i]); !ok || err != nil {
			t.Fatalf("release %d: waiter %d verdict (%v, %v), want admitted", i, i, err, ok)
		}
	}
	st := s.Stats()[0]
	if st.Submitted != n+1 || st.Admitted != n+1 || st.Pending != 1 || st.Waiting != 0 {
		t.Errorf("accounting: %+v", st)
	}
	checkBalanced(t, s)
}

// TestSemWeightedFairShare pins the deficit-round-robin split: classes
// weighted 1 ("bulk") and 3 ("gold"), both backlogged behind a one-slot
// limit, are served in a 1-bulk/3-gold cycle whatever the arrival order.
func TestSemWeightedFairShare(t *testing.T) {
	s := New(1, []Class{{Name: "bulk", Weight: 1}, {Name: "gold", Weight: 3}})
	bulk, _ := s.Lookup("bulk")
	gold, _ := s.Lookup("gold")
	if err := s.TryAcquire(bulk); err != nil {
		t.Fatal(err)
	}
	holder := bulk
	type queued struct {
		w  *waiter
		ci int
	}
	var q []queued
	for range 8 {
		q = append(q, queued{enqueue(t, s, gold), gold}, queued{enqueue(t, s, bulk), bulk})
	}
	var order []string
	for len(q) > 0 {
		s.Release(holder)
		var admitted []int
		var rest []queued
		for _, e := range q {
			if _, ok := peek(e.w); ok {
				admitted = append(admitted, e.ci)
			} else {
				rest = append(rest, e)
			}
		}
		if len(admitted) != 1 {
			t.Fatalf("one Release admitted %d waiters, want 1; order so far %v", len(admitted), order)
		}
		holder, q = admitted[0], rest
		order = append(order, s.Stats()[holder].Name)
	}
	want := []string{"bulk", "gold", "gold", "gold", "bulk", "gold", "gold", "gold"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("admission order %v: position %d = %s, want %s (DRR 1:3 split)", order, i, order[i], w)
		}
	}
	checkBalanced(t, s)
}

// TestSemQuota pins the per-class quota: a class at its quota refuses or
// queues even while the limit and other classes have room, and its
// waiter is admitted as soon as its own class releases.
func TestSemQuota(t *testing.T) {
	s := New(4, []Class{{Name: "capped", MaxPending: 1}, {Name: "free"}})
	capped, _ := s.Lookup("capped")
	free, _ := s.Lookup("free")
	if err := s.TryAcquire(capped); err != nil {
		t.Fatal(err)
	}
	if err := s.TryAcquire(capped); !errors.Is(err, ErrSaturated) {
		t.Fatalf("capped class at quota: err = %v, want ErrSaturated", err)
	}
	if err := s.TryAcquire(free); err != nil {
		t.Fatalf("free class blocked by capped class's quota: %v", err)
	}
	w := enqueue(t, s, capped)
	s.Release(free)
	if _, ok := peek(w); ok {
		t.Fatal("capped waiter admitted by another class's release while at quota")
	}
	s.Release(capped)
	if err, ok := peek(w); !ok || err != nil {
		t.Fatalf("capped waiter after its quota freed: (%v, %v), want admitted", err, ok)
	}
	if st := s.Stats()[capped]; st.Rejected != 1 || st.Admitted != 2 || st.Pending != 1 {
		t.Errorf("capped accounting: %+v", st)
	}
	checkBalanced(t, s)
}

// TestSemCloseReleasesWaiters pins Close: every queued waiter resolves
// with ErrClosed and counts rejected, and every later acquire is refused.
func TestSemCloseReleasesWaiters(t *testing.T) {
	s := New(1, []Class{{}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	ws := []*waiter{enqueue(t, s, 0), enqueue(t, s, 0), enqueue(t, s, 0)}
	s.Close()
	for i, w := range ws {
		if err, ok := peek(w); !ok || err != ErrClosed {
			t.Fatalf("waiter %d after Close: (%v, %v), want ErrClosed", i, err, ok)
		}
	}
	if err := s.TryAcquire(0); err != ErrClosed {
		t.Fatalf("TryAcquire after Close: %v, want ErrClosed", err)
	}
	if err := s.Acquire(context.Background(), 0); err != ErrClosed {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	s.Release(0)
	st := s.Stats()[0]
	if st.Rejected != 5 || st.Waiting != 0 || st.Pending != 0 || s.Held() != 0 {
		t.Errorf("accounting after Close: %+v, held %d", st, s.Held())
	}
	checkBalanced(t, s)
}

// TestSemWithdrawAfterAdmit pins the cancel/admit race: a waiter whose
// context ends after a Release admitted it keeps its slot, and one whose
// context ends while still queued is withdrawn as canceled.
func TestSemWithdrawAfterAdmit(t *testing.T) {
	s := New(1, []Class{{}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	first, second := enqueue(t, s, 0), enqueue(t, s, 0)
	s.Release(0)
	if err := s.withdraw(0, first, context.Canceled); err != nil {
		t.Fatalf("withdraw after admit: %v, want nil (the slot is kept)", err)
	}
	if err := s.withdraw(0, second, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("withdraw while queued: %v, want context.Canceled", err)
	}
	st := s.Stats()[0]
	if st.Admitted != 2 || st.Canceled != 1 || st.Pending != 1 || st.Waiting != 0 {
		t.Errorf("accounting: %+v", st)
	}
	checkBalanced(t, s)
}

// TestSemWithdrawCountsCanceled pins that a withdrawn waiter counts as
// canceled whatever its context's cause, even one equal to ErrClosed:
// the path that resolved it classifies it, not its error value.
func TestSemWithdrawCountsCanceled(t *testing.T) {
	s := New(1, []Class{{}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	if err := s.withdraw(0, enqueue(t, s, 0), ErrClosed); err != ErrClosed {
		t.Fatalf("withdraw with cause ErrClosed: %v, want the cause", err)
	}
	if st := s.Stats()[0]; st.Canceled != 1 || st.Rejected != 0 {
		t.Errorf("accounting: %+v, want Canceled 1, Rejected 0", st)
	}
	checkBalanced(t, s)
}

// TestSemAcquireContextDeadline pins that the caller's context bounds an
// Acquire: a waiter whose ctx expires is withdrawn with DeadlineExceeded
// and counted canceled, not rejected, with its wait charged to its class.
func TestSemAcquireContextDeadline(t *testing.T) {
	s := New(1, []Class{{}, {Name: "named"}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	const d = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire past its deadline: %v, want DeadlineExceeded", err)
	}
	st := s.Stats()[1]
	if st.Submitted != 1 || st.Canceled != 1 || st.Rejected != 0 || st.Waiting != 0 || st.AdmissionWaitNs < int64(d) {
		t.Errorf("class after an expired wait: %+v, want Submitted 1, Canceled 1, Rejected 0, Waiting 0, AdmissionWaitNs >= %d", st, d)
	}
	checkBalanced(t, s)
}

// TestSemAcquireBlocksUntilReleased pins the blocking half: an Acquire
// on a full semaphore stays queued until a Release hands it the slot.
func TestSemAcquireBlocksUntilReleased(t *testing.T) {
	s := New(1, []Class{{}})
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Acquire(nil, 0) }()
	for deadline := time.Now().Add(5 * time.Second); s.Stats()[0].Waiting != 1; {
		if time.Now().After(deadline) {
			t.Fatal("Acquire never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Acquire returned %v while the semaphore was full", err)
	default:
	}
	s.Release(0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Acquire after Release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire still blocked after the slot freed")
	}
	if st := s.Stats()[0]; st.Admitted != 2 || st.Pending != 1 || st.AdmissionWaitNs <= 0 {
		t.Errorf("accounting: %+v", st)
	}
	checkBalanced(t, s)
}

// TestSemNormalizesConfig pins New's normalization: weights clamp to 1,
// negative quotas to 0, and a repeated name re-configures its class.
func TestSemNormalizesConfig(t *testing.T) {
	s := New(0, []Class{{}, {Name: "a", Weight: -2, MaxPending: -1}, {Name: "", Weight: 5, MaxPending: 2}})
	st := s.Stats()
	if len(st) != 2 {
		t.Fatalf("classes %+v, want 2", st)
	}
	if st[0].Name != "" || st[0].Weight != 5 || st[0].MaxPending != 2 {
		t.Errorf("re-configured class: %+v", st[0])
	}
	if st[1].Name != "a" || st[1].Weight != 1 || st[1].MaxPending != 0 {
		t.Errorf("normalized class: %+v", st[1])
	}
	if ci, ok := s.Lookup("a"); !ok || ci != 1 {
		t.Errorf("Lookup(a) = %d, %v", ci, ok)
	}
	if _, ok := s.Lookup("b"); ok {
		t.Error("Lookup of an unconfigured class succeeded")
	}
	// No global limit: only the default class's quota of 2 binds.
	for i := range 2 {
		if err := s.TryAcquire(0); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := s.TryAcquire(0); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third acquire past quota 2: %v, want ErrSaturated", err)
	}
	for i := range 10 {
		if err := s.TryAcquire(1); err != nil {
			t.Fatalf("unbounded class acquire %d: %v", i, err)
		}
	}
	if s.Held() != 12 {
		t.Errorf("Held = %d, want 12", s.Held())
	}
}
