package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInjectOverflowSubmitBurst is the regression test for the root queue
// under concurrent Submit bursts. A single worker is held hostage inside a
// pipeline body while producers submit hundreds of root frames, so the
// queue grows far past its first capacity with nobody draining it. Every
// submitted pipeline must then execute exactly once — no frame lost while
// the queue grows or compacts, none popped twice — including pipelines
// canceled while still queued.
func TestInjectOverflowSubmitBurst(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	e := NewEngine(opts)
	defer e.Close()

	hostageRelease := make(chan struct{})
	hostageRunning := make(chan struct{})
	i := 0
	hostage := e.Submit(context.Background(), func() bool { i++; return i == 1 }, func(it *Iter) {
		close(hostageRunning)
		<-hostageRelease
	})
	<-hostageRunning // the only worker is now blocked inside a body

	const burst = 512
	const producers = 8
	runs := make([]atomic.Int32, burst)
	handles := make([]*Handle, burst)
	cancels := make([]context.CancelFunc, burst)
	var wg sync.WaitGroup
	for prod := 0; prod < producers; prod++ {
		prod := prod
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := prod; idx < burst; idx += producers {
				idx := idx
				ctx := context.Context(nil)
				if idx%5 == 0 { // a fifth get canceled while still queued
					c, cancel := context.WithCancel(context.Background())
					ctx, cancels[idx] = c, cancel
				}
				started := false
				handles[idx] = e.Submit(ctx,
					func() bool { s := started; started = true; return !s },
					func(it *Iter) { runs[idx].Add(1) })
			}
		}()
	}
	wg.Wait()
	for _, cancel := range cancels {
		if cancel != nil {
			cancel()
		}
	}

	close(hostageRelease)
	if err := hostage.Wait(); err != nil {
		t.Fatalf("hostage pipeline: %v", err)
	}
	var executed, skipped int32
	for idx, h := range handles {
		err := h.Wait() // every handle completes: no frame was lost
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("pipeline %d: %v", idx, err)
		}
		switch n := runs[idx].Load(); n {
		case 1:
			executed++
		case 0:
			skipped++
			if err == nil {
				t.Fatalf("pipeline %d reported success without running", idx)
			}
		default:
			t.Fatalf("pipeline %d executed %d times", idx, n)
		}
	}
	if executed+skipped != burst {
		t.Fatalf("%d executed + %d skipped != %d", executed, skipped, burst)
	}
	t.Logf("executed=%d canceled-before-start=%d", executed, skipped)
	checkEngineDrained(t, e)
}

// TestRootQueueOrderAndBound drives the root queue directly, with no
// workers: roots come out in arrival order, and a backlog that never
// drains keeps the backing array bounded by its peak length instead of
// growing with every inject.
func TestRootQueueOrderAndBound(t *testing.T) {
	e := &Engine{}
	frames := make([]frame, 8)
	next, want := 0, 0
	push := func() {
		e.inject(&frames[next%len(frames)])
		next++
	}
	pop := func() {
		t.Helper()
		if got, exp := e.popRoot(), &frames[want%len(frames)]; got != exp {
			t.Fatalf("pop %d: got frame %p, want %p (not FIFO)", want, got, exp)
		}
		want++
	}
	for range 4 {
		push()
	}
	for range 10000 {
		push()
		pop()
	}
	if c := cap(e.roots); c > 16 {
		t.Errorf("backlog of 4 over 10000 injects left cap(roots) = %d, want at most 16", c)
	}
	for range 4 {
		pop()
	}
	if f := e.popRoot(); f != nil || e.rootN.Load() != 0 || e.rootHead != 0 || len(e.roots) != 0 {
		t.Errorf("drained queue: pop %p, rootN %d, head %d, len %d", f, e.rootN.Load(), e.rootHead, len(e.roots))
	}
}
