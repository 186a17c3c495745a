package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"piper/internal/workload"
)

// TestImplicitSyncAtIterationEnd: children spawned with Go but never
// Synced must complete before the iteration is considered done (the
// implicit cilk_sync of every Cilk function).
func TestImplicitSyncAtIterationEnd(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 100
	var done atomic.Int64
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		for g := 0; g < 3; g++ {
			it.Go(func() {
				runtime.Gosched()
				done.Add(1)
			})
		}
		// No Sync: the runtime must insert one.
	})
	if got := done.Load(); got != 3*n {
		t.Fatalf("children completed = %d, want %d (implicit sync missing?)", got, 3*n)
	}
}

// TestMultipleSyncRounds: Go/Sync/Go/Sync in one stage.
func TestMultipleSyncRounds(t *testing.T) {
	e := newTestEngine(t, 4)
	var order []int
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(1)
		var a, b atomic.Int32
		it.Go(func() { a.Store(1) })
		it.Sync()
		if a.Load() != 1 {
			t.Error("first round child not joined")
		}
		order = append(order, 1)
		it.Go(func() { b.Store(2) })
		it.Sync()
		if b.Load() != 2 {
			t.Error("second round child not joined")
		}
		order = append(order, 2)
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// TestSyncWithoutGo is a no-op.
func TestSyncWithoutGo(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	e.PipeWhile(func() bool { return i < 5 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Sync()
		it.Sync()
	})
}

// TestForEdgeCases: n=0, n=1, grain larger than n, negative inputs.
func TestForEdgeCases(t *testing.T) {
	e := newTestEngine(t, 4)
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(1)
		ran := 0
		it.For(0, 4, func(int) { ran++ })
		if ran != 0 {
			t.Errorf("For(0) ran %d times", ran)
		}
		it.For(-5, 4, func(int) { ran++ })
		if ran != 0 {
			t.Errorf("For(-5) ran %d times", ran)
		}
		it.For(1, 100, func(k int) {
			if k != 0 {
				t.Errorf("For(1) index %d", k)
			}
			ran++
		})
		if ran != 1 {
			t.Errorf("For(1) ran %d times", ran)
		}
		var total atomic.Int64
		it.For(33, 0, func(k int) { total.Add(int64(k)) }) // automatic grain
		if total.Load() != 33*32/2 {
			t.Errorf("auto-grain sum = %d", total.Load())
		}
	})
}

// TestForNested: For inside a For leaf body must not be allowed to break
// — leaves run on arbitrary workers, so the inner For still belongs to
// the same iteration and must execute correctly when run inline from the
// iteration's own goroutine.
func TestForLargeFanout(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 100000
	counts := make([]atomic.Int32, n)
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.For(n, 64, func(k int) { counts[k].Add(1) })
	})
	for k := range counts {
		if c := counts[k].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", k, c)
		}
	}
}

// TestGoAcrossStages: children spawned in one stage may be joined in a
// later stage of the same iteration.
func TestGoAcrossStages(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 50
	var sum atomic.Int64
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Go(func() { sum.Add(1) })
		it.Continue(2) // move a stage with the child outstanding
		it.Sync()
	})
	if sum.Load() != n {
		t.Fatalf("sum = %d, want %d", sum.Load(), n)
	}
}

// TestForInsideManyIterations: parallel-for and pipeline parallelism
// compose.
func TestForInsideManyIterations(t *testing.T) {
	e := newTestEngine(t, 4)
	const n, m = 40, 500
	var total atomic.Int64
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		it.For(m, 16, func(k int) { total.Add(1) })
		it.Wait(2)
	})
	if total.Load() != n*m {
		t.Fatalf("total = %d, want %d", total.Load(), n*m)
	}
}

// TestScopeStatsCount: closure tasks show up in stats.
func TestScopeStatsCount(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.For(256, 1, func(int) {})
	})
	if e.Stats().ClosureTasks == 0 {
		t.Fatal("expected closure tasks in stats")
	}
}

// TestForPanicPropagates: a panic in a For body surfaces at PipeWhile.
func TestForPanicPropagates(t *testing.T) {
	e := newTestEngine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from For body")
		}
	}()
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.For(10, 1, func(k int) {
			if k == 7 {
				panic(fmt.Sprintf("for body %d", k))
			}
		})
	})
}

// TestGoSpawnAllocs: on a warmed engine a Go spawn allocates nothing of
// its own — the pooled task frame holds the user's func as is, with no
// wrapper closure around it. The marginal cost of eight more spawns per
// iteration is measured, so the per-Sync scope and the pipeline's own
// allocations cancel out; a wrapper per spawn would read 1.0.
func TestGoSpawnAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const iters = 200
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
	var sum atomic.Int64
	child := func() { sum.Add(1) }
	run := func(spawns int) func() {
		return func() {
			i := 0
			e.PipeWhile(func() bool { i++; return i <= iters }, func(it *Iter) {
				it.Continue(1)
				for k := 0; k < spawns; k++ {
					it.Go(child)
				}
				it.Sync()
			})
		}
	}
	one, nine := run(1), run(9)
	one() // warm the pools and the runners
	nine()
	perGo := (testing.AllocsPerRun(5, nine) - testing.AllocsPerRun(5, one)) / (8 * iters)
	t.Logf("allocs per extra Go: %.3f", perGo)
	if perGo > 0.25 {
		t.Errorf("a Go spawn allocates %.2f times, want 0 on a warmed engine", perGo)
	}
	checkEngineDrained(t, e)
}
