package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"piper/internal/workload"
)

// BenchmarkCrossSatisfied measures the cross-edge check on its hot paths:
// the folding-cache hit (a single runner-local comparison), the shared
// counter read (folding ablated, so every check loads the predecessor's
// published stage), and the retired-predecessor fast-out (prev dropped,
// stageDone cached).
func BenchmarkCrossSatisfied(b *testing.B) {
	mk := func(folding bool) (*Engine, *frame, *frame) {
		opts := DefaultOptions()
		opts.Workers = 1
		opts.DependencyFolding = folding
		e := NewEngine(opts)
		b.Cleanup(e.Close)
		prev := &frame{kind: kindIter, eng: e}
		prev.stage.Store(1 << 40)
		f := &frame{kind: kindIter, eng: e, prev: prev}
		return e, prev, f
	}

	b.Run("FoldHit", func(b *testing.B) {
		_, _, f := mk(true)
		f.crossSatisfied(1) // populate the cache with the shared read
		for i := 0; i < b.N; i++ {
			if !f.crossSatisfied(2) {
				b.Fatal("edge should be satisfied")
			}
		}
	})
	b.Run("SharedRead", func(b *testing.B) {
		_, _, f := mk(false)
		for i := 0; i < b.N; i++ {
			if !f.crossSatisfied(2) {
				b.Fatal("edge should be satisfied")
			}
		}
	})
	b.Run("PrevRetired", func(b *testing.B) {
		_, prev, f := mk(true)
		prev.refs.Store(2) // keep unref from recycling the test frame
		prev.stage.Store(stageDone)
		f.crossSatisfied(1) // observes stageDone, drops prev, caches it
		for i := 0; i < b.N; i++ {
			if !f.crossSatisfied(2) {
				b.Fatal("edge should be satisfied")
			}
		}
	})
}

// BenchmarkSuspendResume measures one suspend+resume cycle of an iteration
// blocked on a cross edge, on Workers(2) at claim 1. Every iteration but
// the first parks on its Wait(1), because its predecessor holds stage 1
// until it sees the successor parked (statusWaitCross) and only then
// advances; the advance or the predecessor's retirement finds the waiter
// by check-right and resumes it. One pipeline runs b.N+1 iterations, so
// ns/op is the cost of one cycle, together with the iteration around it.
func BenchmarkSuspendResume(b *testing.B) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.hooks = &schedHooks{claim: pinClaim(1)}
	e := NewEngine(opts)
	defer e.Close()
	n := int64(b.N) + 1
	var i int64
	pre := e.Stats().CrossSuspends
	b.ResetTimer()
	e.PipeWhile(func() bool { i++; return i <= n }, func(it *Iter) {
		if it.Index() == 0 {
			it.Continue(1)
		} else {
			it.Wait(1)
		}
		if it.Index() < n-1 {
			for {
				if nx := it.f.next.Load(); nx != nil && nx.status.Load() == statusWaitCross {
					break
				}
				runtime.Gosched()
			}
		}
		it.Continue(2)
	})
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().CrossSuspends-pre)/float64(b.N), "suspends/op")
}

// BenchmarkBatchedStages measures ns per iteration of sched-floor's two
// fine-grained shapes on the real clock, so the claim policy batches them
// as it would in production: the chain of four empty Waits, and SPS
// (Continue(1), a spin of about a microsecond, Wait(2)). One pipeline runs
// b.N iterations on Workers(1) and on Workers(2); Wakes/op is how often a
// parked worker was woken per iteration.
func BenchmarkBatchedStages(b *testing.B) {
	shapes := []struct {
		name string
		body func(it *Iter) uint64
	}{
		{"Chain", func(it *Iter) uint64 {
			it.Wait(1)
			it.Wait(2)
			it.Wait(3)
			it.Wait(4)
			return 1
		}},
		{"SPS", func(it *Iter) uint64 {
			it.Continue(1)
			x := workload.Spin(512)
			it.Wait(2)
			return x
		}},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W%d", sh.name, workers), func(b *testing.B) {
				opts := DefaultOptions()
				opts.Workers = workers
				e := NewEngine(opts)
				defer e.Close()
				var sink atomic.Uint64
				pre := e.Stats().Wakes
				i := 0
				b.ResetTimer()
				e.PipeWhile(func() bool { i++; return i <= b.N }, func(it *Iter) {
					sink.Add(sh.body(it))
				})
				b.StopTimer()
				b.ReportMetric(float64(e.Stats().Wakes-pre)/float64(b.N), "wakes/op")
			})
		}
	}
}
