package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

func newEngineOpts(t testing.TB, mutate func(*Options)) *Engine {
	opts := DefaultOptions()
	mutate(&opts)
	e := NewEngine(opts)
	t.Cleanup(e.Close)
	return e
}

// TestSteadyStateAllocs guards the pooling win with testing.AllocsPerRun
// on a steady-state SPS pipeline: recycled frames, coroutine tails and
// pipeline state keep per-iteration allocations near zero (recorded
// 0.0014–0.0016 allocs/iteration; an unpooled iteration costs at least
// its ~400-byte header, one allocation each).
func TestSteadyStateAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const iters = 2000
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	var sink atomic.Int64
	run := func() {
		i := 0
		e.PipeWhile(func() bool { return i < iters }, func(it *Iter) {
			i++
			it.Continue(1)
			sink.Add(it.Index())
			it.Wait(2)
		})
	}
	run() // warm the pools and the workers
	pooled := testing.AllocsPerRun(5, run) / iters
	t.Logf("allocs/iteration: %.4f", pooled)
	if pooled > 0.1 {
		t.Errorf("pooled steady state allocates %.3f/iter, want <= 0.1", pooled)
	}
}

// TestPoolStatsCount checks that steady-state iteration frames are served
// from the pool (hits dominate misses).
func TestPoolStatsCount(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	for rep := 0; rep < 5; rep++ {
		i := 0
		e.PipeWhile(func() bool { return i < 400 }, func(it *Iter) {
			i++
			it.Continue(1)
			it.Wait(2)
		})
	}
	s := e.Stats()
	if s.FramePoolHits == 0 {
		t.Errorf("no pool hits after 2000 pooled iterations (misses=%d)", s.FramePoolMisses)
	}
	// sync.Pool's per-P caches make the exact hit rate scheduling-
	// dependent (notably under the race detector); just require that
	// recycling dominates.
	if s.FramePoolHits < s.FramePoolMisses {
		t.Errorf("pool hit rate too low: hits=%d misses=%d", s.FramePoolHits, s.FramePoolMisses)
	}
}

// TestBurstInjectionWakesAllWorkers is the lost-wakeup regression test:
// P pipelines are injected in a burst against P parked workers, and every
// pipeline's stage-1 node spins until all P have reached it — which is
// only possible if the injection signals woke P distinct workers. The old
// single-slot wake channel dropped the burst's tokens and relied on
// polling; event-driven parking must deliver one wake per injection.
func TestBurstInjectionWakesAllWorkers(t *testing.T) {
	const p = 8
	e := newTestEngine(t, p)

	for rep := 0; rep < 3; rep++ {
		// Let every worker park.
		deadline := time.Now().Add(5 * time.Second)
		for e.idle.Load() < p {
			if time.Now().After(deadline) {
				t.Fatalf("rep %d: workers never parked (idle=%d)", rep, e.idle.Load())
			}
			runtime.Gosched()
		}

		var entered atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < p; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
					i++
					it.Continue(1)
					// Rendezvous: requires all P pipelines to be running
					// simultaneously, hence P awake workers.
					entered.Add(1)
					for entered.Load() < p {
						runtime.Gosched()
					}
				})
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("rep %d: burst stalled with %d/%d pipelines running — lost wakeup",
				rep, entered.Load(), p)
		}
	}
	s := e.Stats()
	if s.Wakes == 0 {
		t.Error("no wake tokens recorded despite parked-worker burst")
	}
	if s.Parks == 0 {
		t.Error("no parks recorded despite idle engine")
	}
}

// TestInjectOverflow forces the sharded rings to spill into the overflow
// list by injecting far more pipelines than total ring capacity from many
// goroutines at once, and checks nothing is lost.
func TestInjectOverflow(t *testing.T) {
	e := newTestEngine(t, 2)
	const pipelines = 600 // 2 workers x 64-slot rings << 600 concurrent roots
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < pipelines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			e.PipeWhile(func() bool { return i < 2 }, func(it *Iter) {
				i++
				it.Continue(1)
				ran.Add(1)
			})
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 2*pipelines {
		t.Fatalf("ran %d iterations, want %d", got, 2*pipelines)
	}
}

// TestPoolReuseAfterPanic checks that a panicking iteration's frame
// recycles cleanly: subsequent pipelines on the same engine must see
// fresh state.
func TestPoolReuseAfterPanic(t *testing.T) {
	e := newTestEngine(t, 2)
	for rep := 0; rep < 10; rep++ {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "boom" {
					t.Fatalf("rep %d: recovered %v, want boom", rep, r)
				}
			}()
			i := 0
			e.PipeWhile(func() bool { return i < 20 }, func(it *Iter) {
				i++
				it.Continue(1)
				if it.Index() == 13 {
					panic("boom")
				}
				it.Wait(2)
			})
		}()
		// A clean pipeline right after must run all iterations in order.
		i := 0
		var order []int64
		e.PipeWhile(func() bool { return i < 50 }, func(it *Iter) {
			i++
			it.Wait(1)
			order = append(order, it.Index())
		})
		for k, v := range order {
			if v != int64(k) {
				t.Fatalf("rep %d: order[%d] = %d after panic recovery", rep, k, v)
			}
		}
	}
}
