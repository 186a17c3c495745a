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
	// The default claim policy and both claim extremes: cancellation must
	// behave identically whether iterations run one per frame acquisition
	// (claim 1) or many per recycled batch frame (claim 8) — and in
	// every case the gauge sweep must show the batch-frame state draining
	// back to the pools after the storm.
	t.Run("inline", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) {})
	})
	t.Run("grain1", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) { o.hooks = &schedHooks{claim: pinClaim(1)} })
	})
	t.Run("batched-g8", func(t *testing.T) {
		cancelStressRandomized(t, func(o *Options) { o.hooks = &schedHooks{claim: pinClaim(8)} })
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
		cancelStressNestedForkJoin(t, func(o *Options) { o.hooks = &schedHooks{claim: pinClaim(8)} })
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
