package piper_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper"
	"piper/internal/workload"
)

// Admission under storms, the closed-engine error, and the admitted
// Submit's allocation count, through the public API. The leak checks at
// the end mirror the scheduler core's own: live gauges settle to zero once
// every pipeline has completed, and the goroutine count returns to its
// pre-engine baseline after Close.

// TestCancelStressSubmitWaitAdmissionRace storms the race between a
// SubmitWaitThrottled caller's context cancellation and a freed
// admission slot resolving simultaneously. The contract under test: the
// Handle must report either a successful admission (launching the
// pipeline, which a dead context then aborts through the ordinary
// cancellation path) or the context's cause — never hang, and never
// release a slot twice. The trailing capacity probe is the
// double-release/leak detector: after the storm the budget must hold
// exactly MaxPending slots, no more and no fewer.
func TestCancelStressSubmitWaitAdmissionRace(t *testing.T) {
	base := goroutineBaseline()
	e := piper.NewEngine(piper.Workers(4), piper.MaxPending(2))

	const callers = 240
	rng := workload.NewRNG(0xad317)
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		canceled  atomic.Int64
	)
	for c := 0; c < callers; c++ {
		// Cancellation delays are drawn across the whole admission-latency
		// band (the short pipelines below run in tens to hundreds of
		// microseconds), so many cancels land exactly while a freed slot
		// is being handed to the waiter.
		delay := time.Duration(rng.Intn(300)) * time.Microsecond
		spin := int64(rng.Intn(1500))
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			cancel()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			var sink atomic.Uint64
			h := e.SubmitWaitThrottled(ctx, 2, func() bool { i++; return i <= 3 }, func(it *piper.Iter) {
				it.Continue(1)
				sink.Add(workload.Spin(spin))
				it.Wait(2)
			})
			select {
			case <-h.Done():
			case <-time.After(30 * time.Second):
				t.Error("admission race hang: Handle never resolved")
				return
			}
			switch err := h.Wait(); {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, context.Canceled):
				canceled.Add(1)
			default:
				t.Errorf("Wait = %v, want nil or context.Canceled", err)
			}
		}()
	}
	wg.Wait()

	if total := completed.Load() + canceled.Load(); total != callers {
		t.Fatalf("accounting: %d completed + %d canceled != %d", completed.Load(), canceled.Load(), callers)
	}
	// Per-class admission accounting: every submission resolved exactly
	// one way, and an admission canceled at launch still counts admitted
	// (its slot traveled the full admit→release lifecycle).
	ts := e.TenantStats()[0]
	if ts.Submitted != callers {
		t.Errorf("Submitted = %d, want %d", ts.Submitted, callers)
	}
	if ts.Admitted+ts.Rejected+ts.Canceled != ts.Submitted {
		t.Errorf("sum: %+v, want Submitted == Admitted+Rejected+Canceled", ts)
	}
	if ts.Rejected != 0 {
		t.Errorf("Rejected = %d on an open engine (only ctx or Close can end a wait), want 0", ts.Rejected)
	}
	if ts.Admitted < completed.Load() {
		t.Errorf("Admitted = %d < %d completions", ts.Admitted, completed.Load())
	}
	if ts.Waiting != 0 || ts.Pending != 0 {
		t.Errorf("gauges after storm: %+v, want zero Waiting/Pending", ts)
	}

	// Capacity probe: a leaked slot would reject one of the two gated
	// submissions; a double-released slot would admit the third.
	gate := make(chan struct{})
	g1, g2 := gatedSubmit(e, gate), gatedSubmit(e, gate)
	waitTenant(t, e, piper.DefaultTenant, 5*time.Second, func(s piper.TenantStats) bool { return s.Pending == 2 })
	if err := e.Submit(nil, func() bool { return false }, func(*piper.Iter) {}).Wait(); !errors.Is(err, piper.ErrSaturated) {
		t.Errorf("budget after storm: third submit err = %v, want ErrSaturated (slot double-release?)", err)
	}
	close(gate)
	if err := g1.Wait(); err != nil {
		t.Errorf("capacity probe 1: %v (slot leaked during the storm?)", err)
	}
	if err := g2.Wait(); err != nil {
		t.Errorf("capacity probe 2: %v (slot leaked during the storm?)", err)
	}

	checkEngineDrained(t, e)
	e.Close()
	checkGoroutinesSettle(t, base, 4)
}

// TestAdmissionStatsDuringCancelStorm hammers Engine.Stats from
// concurrent readers while a cancel storm of SubmitWait callers churns
// admission slots underneath: the PendingAdmitted gauge, read outside the
// scheduler's stable-gauge loop, never goes negative, and once the storm
// drains it is exact — zero, with every other live gauge.
func TestAdmissionStatsDuringCancelStorm(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(8))
	defer e.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := e.Stats(); s.PendingAdmitted < 0 || s.PendingAdmitted > 8 || s.LivePipelines < 0 {
					t.Errorf("torn gauge snapshot: %+v", s)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for q := 0; q < 30; q++ {
		i := 0
		h := e.SubmitWait(nil, func() bool { i++; return i <= 30 }, func(it *piper.Iter) {
			it.Continue(1)
			it.Wait(2)
		})
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if q%3 == 0 {
				h.Cancel()
			}
			_ = h.Wait()
		}(q)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if s := e.Stats(); s.PendingAdmitted != 0 {
		t.Errorf("quiescent PendingAdmitted = %d, want 0", s.PendingAdmitted)
	}
	checkEngineDrained(t, e)
}

// TestSubmitWaitCancelCauseCountsCanceled pins that a withdrawn waiter is
// counted by the path that resolved it, not by its error value: a
// SubmitWait whose context is canceled with cause ErrEngineClosed while
// it is queued on an open engine reports that cause, and its class counts
// it Canceled, not Rejected.
func TestSubmitWaitCancelCauseCountsCanceled(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))
	defer e.Close()
	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- e.SubmitWait(ctx, func() bool { return false }, func(*piper.Iter) {}).Wait()
	}()
	waitTenant(t, e, piper.DefaultTenant, 5*time.Second, func(ts piper.TenantStats) bool { return ts.Waiting == 1 })
	cancel(piper.ErrEngineClosed)
	if err := <-done; err != piper.ErrEngineClosed {
		t.Errorf("withdrawn waiter: Wait = %v, want its context's cause", err)
	}
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	if ts := e.TenantStats()[0]; ts.Canceled != 1 || ts.Rejected != 0 {
		t.Errorf("class after a withdrawn waiter: %+v, want Canceled 1, Rejected 0", ts)
	}
}

// TestClosedEngineErrorIdentity pins that a closed engine's refusal is
// exactly ErrEngineClosed, whichever layer refuses: the scheduler (no
// admission control) or the admission semaphore (a budget).
func TestClosedEngineErrorIdentity(t *testing.T) {
	cond, body := func() bool { return false }, func(*piper.Iter) {}
	plain := piper.NewEngine(piper.Workers(1))
	plain.Close()
	budget := piper.NewEngine(piper.Workers(1), piper.MaxPending(1))
	budget.Close()
	for name, h := range map[string]*piper.Handle{
		"scheduler Submit":     plain.Submit(nil, cond, body),
		"semaphore Submit":     budget.Submit(nil, cond, body),
		"semaphore SubmitWait": budget.SubmitWait(nil, cond, body),
	} {
		if err := h.Wait(); err != piper.ErrEngineClosed {
			t.Errorf("%s on a closed engine: Wait = %v, want ErrEngineClosed", name, err)
		}
	}
}

// TestAdmittedSubmitAllocs guards the admitted submission's allocations:
// a SubmitWaitTenant + Wait cycle on a warmed Workers(1) engine with a
// budget and two tenant classes made 7 allocations when the scheduler
// core held the semaphore and released the slot itself, and composing
// admission over Submit must not add any.
func TestAdmittedSubmitAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	e := piper.NewEngine(piper.Workers(1), piper.MaxPending(4), piper.Tenants(
		piper.TenantClass{Name: "a", Weight: 2},
		piper.TenantClass{Name: "b", MaxPending: 1},
	))
	defer e.Close()
	ctx := context.Background()
	cycle := func() {
		i := 0
		if err := e.SubmitWaitTenant(ctx, "a", func() bool { i++; return i <= 1 }, func(*piper.Iter) {}).Wait(); err != nil {
			t.Fatalf("admitted submission: %v", err)
		}
	}
	for range 100 {
		cycle() // warm the pools and the worker
	}
	got := testing.AllocsPerRun(200, cycle)
	t.Logf("allocs per cycle: %.2f", got)
	if got > 7 {
		t.Errorf("SubmitWaitTenant + Wait allocates %.2f per cycle, want <= 7", got)
	}
}

// gatedSubmit submits a pipeline that blocks until gate closes, pinning
// one admission slot (and one worker) for the duration.
func gatedSubmit(e *piper.Engine, gate <-chan struct{}) *piper.Handle {
	i := 0
	return e.Submit(nil, func() bool { i++; return i == 1 }, func(it *piper.Iter) {
		it.Continue(1)
		<-gate
	})
}

// settles polls cond until it reports true or the deadline expires.
func settles(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for delay := 100 * time.Microsecond; ; delay *= 2 {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(min(delay, 50*time.Millisecond))
	}
}

// checkEngineDrained asserts that e holds no live frames or arena bytes.
// Call with all pipelines completed but the engine still open. Gauges may
// trail a completion signal by one worker step, hence the settle loop.
func checkEngineDrained(t testing.TB, e *piper.Engine) {
	t.Helper()
	ok := settles(5*time.Second, func() bool {
		s := e.Stats()
		return s.LiveIterFrames == 0 && s.LiveClosureFrames == 0 && s.LivePipelines == 0 &&
			s.LiveArenaBytes == 0
	})
	if !ok {
		s := e.Stats()
		t.Errorf("engine not drained: %d live iteration frames, %d live closure frames, %d live pipelines, %d live arena bytes",
			s.LiveIterFrames, s.LiveClosureFrames, s.LivePipelines, s.LiveArenaBytes)
	}
}

// goroutineBaseline samples the current goroutine count for a later
// checkGoroutinesSettle. Take it before creating the engine under test.
func goroutineBaseline() int {
	runtime.GC() // flush exiting goroutines from prior tests
	return runtime.NumGoroutine()
}

// checkGoroutinesSettle asserts the goroutine count returns to within
// slack of base. Call after Engine.Close.
func checkGoroutinesSettle(t testing.TB, base, slack int) {
	t.Helper()
	ok := settles(10*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+slack
	})
	if !ok {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked: %d now vs baseline %d (+%d slack)\n%s",
			runtime.NumGoroutine(), base, slack, buf[:n])
	}
}
