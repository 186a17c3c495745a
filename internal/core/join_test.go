package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestJoinLeave: leave claims the waiter only when it is parked on this
// join and the decrement took the count below the limit — at the throttle
// limit K and at the sync limit 1 alike. A waiter parked on another join
// (a recycled owner frame's new incarnation) is never claimed, and a
// running or cross-parked one is left alone.
func TestJoinLeave(t *testing.T) {
	const K = 4
	limits := []struct {
		limit, before int64 // the limit, and the count before the leave
		below         bool  // whether the decrement takes it below the limit
	}{
		{K, K + 1, false},
		{K, K, true},
		{K, 1, true},
		{1, 2, false},
		{1, 1, true},
	}
	statuses := []int32{statusRunning, statusWaitCross, statusWaitJoin, statusDone}
	for _, lc := range limits {
		for _, status := range statuses {
			for _, on := range []string{"this", "other", "nil"} {
				name := fmt.Sprintf("limit=%d/n=%d/status=%d/waitingJoin=%s", lc.limit, lc.before, status, on)
				t.Run(name, func(t *testing.T) {
					f := &frame{kind: kindIter, eng: &Engine{}}
					var j, other join
					j.waiter, other.waiter = f, f
					j.n.Store(lc.before)
					j.limit.Store(lc.limit)
					switch on {
					case "this":
						f.waitingJoin.Store(&j)
					case "other":
						f.waitingJoin.Store(&other)
					}
					f.status.Store(status)
					want := lc.below && status == statusWaitJoin && on == "this"
					got := j.leave()
					if (got != nil) != want || got != nil && got != f {
						t.Fatalf("leave() = %p, want claim %v (waiter %p)", got, want, f)
					}
					if n := j.n.Load(); n != lc.before-1 {
						t.Errorf("count after leave = %d, want %d", n, lc.before-1)
					}
					wantStatus := status
					if want {
						wantStatus = statusRunning
					}
					if s := f.status.Load(); s != wantStatus {
						t.Errorf("status after leave = %d, want %d", s, wantStatus)
					}
				})
			}
		}
	}
}

// TestJoinLeaveClaimsOnce races the waiter's park against the leaves that
// release it, under limit 1 and under a throttle limit: exactly one party
// ends up with the waiter, either the waiter itself through publish's
// re-check or a single leave. Zero would be a lost wake, two a double
// delivery. The racers are long-lived goroutines that start each round
// together off one shared round counter, so the park often lands inside
// the final leave's window.
func TestJoinLeaveClaimsOnce(t *testing.T) {
	for _, limit := range []int64{1, 3} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			const leavers, rounds = 3, 20000
			e := &Engine{} // no hooks: publish's hook point is a nil check
			var j *join
			var round, done, claims atomic.Int32
			racer := func(act func() bool) {
				for r := int32(1); r <= rounds; r++ {
					for i := 1; round.Load() < r; i++ {
						if i%64 == 0 {
							runtime.Gosched()
						}
					}
					if act() {
						claims.Add(1)
					}
					done.Add(1)
				}
			}
			for range leavers {
				go racer(func() bool { return j.leave() != nil })
			}
			go racer(func() bool {
				j.limit.Store(limit)
				j.waiter.waitingJoin.Store(j)
				_, took := j.publish()
				return took
			})
			for r := int32(1); r <= rounds; r++ {
				j = &join{waiter: &frame{kind: kindIter, eng: e}}
				j.n.Store(limit - 1 + leavers)
				done.Store(0)
				claims.Store(0)
				round.Store(r)
				for done.Load() < leavers+1 {
					runtime.Gosched()
				}
				if c := claims.Load(); c != 1 {
					round.Store(rounds) // let the racers run out
					t.Fatalf("round %d: waiter claimed %d times, want exactly once", r, c)
				}
			}
		})
	}
}
