//go:build goexperiment.synctest

// Clock-exact admission tests. Each runs in a testing/synctest bubble,
// whose fake clock advances only when every goroutine in it is blocked,
// so a wait is measured to the nanosecond and "still blocked" is a fact
// after synctest.Wait rather than a guess after a sleep. Run them with
//
//	GOEXPERIMENT=synctest go test ./internal/admit
package admit

import (
	"context"
	"errors"
	"testing"
	"testing/synctest"
	"time"
)

// full returns a one-slot semaphore over classes whose slot class 0 holds.
func full(t *testing.T, classes ...Class) *Sem {
	t.Helper()
	s := New(1, classes)
	if err := s.TryAcquire(0); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSyncDeadlineWithdrawsAtDeadline pins that a context deadline D
// withdraws its waiter at bubble time D exactly, counted canceled with a
// wait of exactly D.
func TestSyncDeadlineWithdrawsAtDeadline(t *testing.T) {
	synctest.Run(func() {
		s := full(t, Class{}, Class{Name: "named"})
		const d = 250 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		start := time.Now()
		if err := s.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Acquire past its deadline: %v, want DeadlineExceeded", err)
		}
		if got := time.Since(start); got != d {
			t.Errorf("withdrawn after %v, want exactly %v", got, d)
		}
		st := s.Stats()[1]
		if st.Submitted != 1 || st.Canceled != 1 || st.Rejected != 0 || st.Waiting != 0 || st.AdmissionWaitNs != int64(d) {
			t.Errorf("class after an expired wait: %+v, want Canceled 1, Waiting 0, AdmissionWaitNs %d", st, d)
		}
	})
}

// TestSyncAcquireBlocksUntilRelease pins the blocking half: an Acquire on
// a full semaphore is durably blocked, stays blocked however long the
// clock runs, and is admitted by the next Release with its wait charged
// exactly.
func TestSyncAcquireBlocksUntilRelease(t *testing.T) {
	synctest.Run(func() {
		s := full(t, Class{})
		done := make(chan error, 1)
		go func() { done <- s.Acquire(context.Background(), 0) }()
		synctest.Wait()
		select {
		case err := <-done:
			t.Fatalf("Acquire returned %v while the semaphore was full", err)
		default:
		}
		time.Sleep(time.Hour)
		if st := s.Stats()[0]; st.Waiting != 1 || len(done) != 0 {
			t.Fatalf("after an hour: %+v, returned %v; want still queued", st, len(done) != 0)
		}
		s.Release(0)
		synctest.Wait()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Acquire after Release: %v", err)
			}
		default:
			t.Fatal("Acquire still blocked after the slot freed")
		}
		if st := s.Stats()[0]; st.Admitted != 2 || st.Pending != 1 || st.AdmissionWaitNs != int64(time.Hour) {
			t.Errorf("accounting: %+v, want Admitted 2, Pending 1, AdmissionWaitNs of one hour", st)
		}
	})
}

// TestSyncWeightedFairOrder pins the DRR split with real blocked Acquire
// callers: synctest.Wait sequences their arrival exactly, so the 1:3
// bulk/gold cycle is checked without polling.
func TestSyncWeightedFairOrder(t *testing.T) {
	synctest.Run(func() {
		s := full(t, Class{Name: "bulk", Weight: 1}, Class{Name: "gold", Weight: 3})
		admitted := make(chan int, 16)
		for range 8 {
			for _, ci := range []int{1, 0} { // gold arrives first
				go func() {
					if err := s.Acquire(context.Background(), ci); err != nil {
						t.Errorf("class %d: %v", ci, err)
						return
					}
					admitted <- ci
				}()
				synctest.Wait()
			}
		}
		holder := 0
		var order []int
		for range 16 {
			s.Release(holder)
			synctest.Wait()
			if len(admitted) != 1 {
				t.Fatalf("one Release admitted %d callers; order so far %v", len(admitted), order)
			}
			holder = <-admitted
			order = append(order, holder)
		}
		// Both classes stay backlogged for the first two full rounds.
		want := []int{0, 1, 1, 1, 0, 1, 1, 1}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("admission order %v (0 bulk, 1 gold), want prefix %v", order, want)
			}
		}
		s.Release(holder)
	})
}

// TestSyncCloseReleasesBlocked pins Close against a blocked Acquire: it
// returns ErrClosed at once and counts rejected.
func TestSyncCloseReleasesBlocked(t *testing.T) {
	synctest.Run(func() {
		s := full(t, Class{})
		done := make(chan error, 1)
		go func() { done <- s.Acquire(context.Background(), 0) }()
		synctest.Wait()
		s.Close()
		synctest.Wait()
		if len(done) != 1 {
			t.Fatal("Acquire still blocked after Close")
		}
		if err := <-done; err != ErrClosed {
			t.Fatalf("Acquire across Close: %v, want ErrClosed", err)
		}
		if st := s.Stats()[0]; st.Rejected != 1 || st.Waiting != 0 {
			t.Errorf("accounting: %+v", st)
		}
	})
}

// TestSyncCancelAfterAdmitKeepsSlot pins the race between a caller's
// context ending and a Release admitting it in the same instant: the
// admission stands, so the caller holds the slot and nothing leaks.
func TestSyncCancelAfterAdmitKeepsSlot(t *testing.T) {
	synctest.Run(func() {
		s := full(t, Class{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Acquire(ctx, 0) }()
		synctest.Wait()
		s.Release(0)
		cancel()
		synctest.Wait()
		if err := <-done; err != nil {
			t.Fatalf("Acquire admitted before its ctx ended: %v, want nil", err)
		}
		if st := s.Stats()[0]; st.Admitted != 2 || st.Canceled != 0 || st.Pending != 1 || s.Held() != 1 {
			t.Errorf("accounting: %+v, held %d", st, s.Held())
		}
	})
}
