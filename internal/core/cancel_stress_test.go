package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

// TestCancelStressRandomized is the serving-scenario soak: hundreds of
// concurrent Submits, each canceled at a random point in its life —
// before launch, mid-flight, near completion, or never. Every Wait must
// return the context error or nil, no goroutine may leak, and every frame
// must drain back to the pools.
func TestCancelStressRandomized(t *testing.T) {
	// The default claim policy and both grain extremes: cancellation must
	// behave identically whether iterations run one per frame acquisition
	// (Grain 1) or many per recycled batch frame (fixed Grain 8) — and in
	// every case the gauge sweep must show the batch-frame state draining
	// back to the pools after the storm.
	t.Run("inline", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) {})
	})
	t.Run("grain1", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) { o.Grain = 1 })
	})
	t.Run("batched-g8", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) { o.Grain = 8 })
	})
}

func cancelStressRandomized(t *testing.T, mutate func(*Options)) {
	base := goroutineBaseline()
	opts := DefaultOptions()
	opts.Workers = 4
	mutate(&opts)
	e := NewEngine(opts)

	const pipelines = 300
	rng := workload.NewRNG(0xc0ffee)
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		canceled  atomic.Int64
		badErrs   atomic.Int64
	)
	for p := 0; p < pipelines; p++ {
		iters := 1 + int(rng.Intn(40))
		spin := int64(rng.Intn(2000))
		// mode 0: never cancel; 1: pre-canceled; 2: cancel after a random
		// delay; 3: cancel via Handle.Cancel from the waiter.
		mode := int(rng.Intn(4))
		delay := time.Duration(rng.Intn(300)) * time.Microsecond

		ctx, cancel := context.WithCancel(context.Background())
		if mode == 1 {
			cancel()
		}
		i := 0
		var sink atomic.Uint64
		h := e.Submit(ctx, func() bool { i++; return i <= iters }, func(it *Iter) {
			it.Continue(1)
			sink.Add(workload.Spin(spin))
			it.Wait(2)
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			switch mode {
			case 2:
				time.Sleep(delay)
				cancel()
			case 3:
				time.Sleep(delay)
				h.Cancel()
			}
			switch err := h.Wait(); {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, context.Canceled):
				canceled.Add(1)
			default:
				badErrs.Add(1)
				t.Errorf("Wait = %v, want nil or context.Canceled", err)
			}
		}()
	}
	wg.Wait()

	if completed.Load()+canceled.Load() != pipelines {
		t.Fatalf("accounting: %d completed + %d canceled + %d bad != %d",
			completed.Load(), canceled.Load(), badErrs.Load(), pipelines)
	}
	s := e.Stats()
	if s.Submits != pipelines {
		t.Fatalf("Submits = %d, want %d", s.Submits, pipelines)
	}
	if s.AbortedPipelines != canceled.Load() {
		t.Errorf("AbortedPipelines = %d, but %d Waits returned the context error",
			s.AbortedPipelines, canceled.Load())
	}
	t.Logf("completed=%d canceled=%d abortedIters=%d cancelRequests=%d",
		completed.Load(), canceled.Load(), s.AbortedIterations, s.CancelRequests)

	// Leak invariants: pool gauges back to baseline with the engine still
	// open, then goroutine count back to baseline after Close.
	checkEngineDrained(t, e)
	e.Close()
	checkGoroutinesSettle(t, base, 4)
}

// TestCancelStressNestedForkJoin drives the abort paths through the
// composition the runtime optimizes hardest: nested pipelines and
// fork-join stages under random cancellation.
func TestCancelStressNestedForkJoin(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		cancelStressNestedForkJoin(t, func(o *Options) {})
	})
	// The nested pipelines force a split in every claimed batch, driving
	// the abort paths through the split/release machinery.
	t.Run("batched-g8", func(t *testing.T) {
		cancelStressNestedForkJoin(t, func(o *Options) { o.Grain = 8 })
	})
}

func cancelStressNestedForkJoin(t *testing.T, mutate func(*Options)) {
	base := goroutineBaseline()
	opts := DefaultOptions()
	opts.Workers = 4
	mutate(&opts)
	e := NewEngine(opts)

	const pipelines = 60
	rng := workload.NewRNG(0xdecaf)
	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		delay := time.Duration(rng.Intn(500)) * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		i := 0
		var sink atomic.Uint64
		h := e.Submit(ctx, func() bool { i++; return i <= 30 }, func(it *Iter) {
			it.Continue(1)
			it.Go(func() { sink.Add(workload.Spin(200)) })
			it.Go(func() { sink.Add(workload.Spin(200)) })
			it.Sync()
			it.Wait(2)
			j := 0
			it.PipeWhile(func() bool { j++; return j <= 4 }, func(nit *Iter) {
				nit.Continue(1)
				sink.Add(workload.Spin(100))
			})
			it.Wait(3)
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			cancel()
			if err := h.Wait(); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("Wait = %v", err)
			}
		}()
	}
	wg.Wait()
	checkEngineDrained(t, e)
	e.Close()
	checkGoroutinesSettle(t, base, 4)
}

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
	opts := DefaultOptions()
	opts.Workers = 4
	opts.MaxPending = 2
	e := NewEngine(opts)

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
			h := e.SubmitWaitThrottled(ctx, 2, func() bool { i++; return i <= 3 }, func(it *Iter) {
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
		t.Errorf("Rejected = %d on an open engine with no class deadline, want 0", ts.Rejected)
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
	waitTenant(t, e, DefaultTenant, 5*time.Second, func(s TenantStats) bool { return s.Pending == 2 })
	if err := e.Submit(nil, func() bool { return false }, func(*Iter) {}).Wait(); !errors.Is(err, ErrSaturated) {
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

// TestCancelStressCancelRacesClose storms Handle.Cancel against
// Engine.Close with the scheduler perturbation hooks active: submissions
// keep arriving while Close fires mid-storm, and every handle is canceled
// from a racing waiter. Each Wait must resolve to nil (completed before
// the drain), context.Canceled (the cancel won), or ErrEngineClosed (the
// submission lost the race to Close) — never anything else, never a hang
// — and the goroutine count must settle back to baseline: the abort
// unwinding and the close drain may not strand each other's frames.
func TestCancelStressCancelRacesClose(t *testing.T) {
	for _, seed := range []uint64{0x5eed1, 0xbead2, 0xfeed3} {
		t.Run(fmt.Sprintf("seed%x", seed), func(t *testing.T) {
			base := goroutineBaseline()
			opts := DefaultOptions()
			opts.Workers = 4
			opts.hooks = newPerturber(seed)
			e := NewEngine(opts)

			const pipelines = 120
			rng := workload.NewRNG(seed)
			closeAt := 40 + int(rng.Intn(40))
			var (
				wg        sync.WaitGroup
				completed atomic.Int64
				canceled  atomic.Int64
				closed    atomic.Int64
			)
			for p := 0; p < pipelines; p++ {
				delay := time.Duration(rng.Intn(200)) * time.Microsecond
				if p > closeAt {
					// Spread the tail of the storm across the close drain so
					// some submissions genuinely lose the race and resolve
					// with ErrEngineClosed instead of all sneaking in first.
					time.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
				}
				i := 0
				var sink atomic.Uint64
				h := e.Submit(nil, func() bool { i++; return i <= 20 }, func(it *Iter) {
					it.Continue(1)
					sink.Add(workload.Spin(300))
					it.Wait(2)
				})
				if p == closeAt {
					wg.Add(1)
					go func() {
						defer wg.Done()
						e.Close()
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					time.Sleep(delay)
					h.Cancel()
					switch err := h.Wait(); {
					case err == nil:
						completed.Add(1)
					case errors.Is(err, context.Canceled):
						canceled.Add(1)
					case errors.Is(err, ErrEngineClosed):
						closed.Add(1)
					default:
						t.Errorf("Wait = %v, want nil, context.Canceled, or ErrEngineClosed", err)
					}
				}()
			}
			wg.Wait()
			e.Close() // idempotent: the racing Close already won
			if total := completed.Load() + canceled.Load() + closed.Load(); total != pipelines {
				t.Errorf("accounting: %d completed + %d canceled + %d closed != %d",
					completed.Load(), canceled.Load(), closed.Load(), pipelines)
			}
			t.Logf("completed=%d canceled=%d closed=%d (close at submission %d)",
				completed.Load(), canceled.Load(), closed.Load(), closeAt)
			checkGoroutinesSettle(t, base, 4)
		})
	}
}
