package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Hand-rolled leak checking shared by the cancellation, overflow, and fuzz
// tests. Two invariants together prove that aborted work drains cleanly:
// the engine's live-frame gauges return to zero once every pipeline has
// completed, and the process goroutine count settles back to its
// pre-engine baseline after Close (a goroutine that Close joined or
// stopped may still be finishing its exit, so both checks poll).

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
		if delay > 50*time.Millisecond {
			delay = 50 * time.Millisecond
		}
		time.Sleep(delay)
	}
}

// checkEngineDrained asserts that e holds no live frames or arena bytes:
// every iteration frame, closure frame, and pipeline acquired has been
// retired, and every payload region checked out of the engine's arena has
// been released. Call with all pipelines completed but the engine still
// open. Gauges may trail a completion signal by one worker step, hence
// the settle loop.
func checkEngineDrained(t testing.TB, e *Engine) {
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

// TestGaugesDrainAcrossGrainTiers is the gauge sweep over the batched
// execution tiers: a cancel storm against Grain(1), a fixed batch claim,
// and the adaptive default must all drain the live-frame gauges to zero —
// including frames that were mid-claim (recycling in place across batch
// slots) when their submission aborted.
func TestGaugesDrainAcrossGrainTiers(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		grain int
	}{{"grain1", 1}, {"batched-g8", 8}, {"adaptive", 0}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.Grain = cfg.grain
			e := NewEngine(opts)
			defer e.Close()
			var wg sync.WaitGroup
			for q := 0; q < 60; q++ {
				ctx, cancel := context.WithCancel(context.Background())
				i := 0
				h := e.Submit(ctx, func() bool { i++; return i <= 64 }, func(it *Iter) {
					it.Continue(1)
					it.Wait(2)
				})
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					defer cancel()
					if q%2 == 0 {
						cancel() // half the storm aborts mid-claim
					}
					_ = h.Wait()
				}(q)
			}
			wg.Wait()
			checkEngineDrained(t, e)
		})
	}
}

// goroutineBaseline samples the current goroutine count for a later
// checkGoroutinesSettle. Take it before creating the engine under test.
func goroutineBaseline() int {
	runtime.GC() // flush exiting goroutines from prior tests
	return runtime.NumGoroutine()
}

// checkGoroutinesSettle asserts the goroutine count returns to within
// slack of base. Call after Engine.Close, which joins the worker
// goroutines and stops the pooled runners.
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
