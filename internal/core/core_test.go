package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func newTestEngine(t testing.TB, workers int) *Engine {
	opts := DefaultOptions()
	opts.Workers = workers
	e := NewEngine(opts)
	t.Cleanup(e.Close)
	return e
}

// TestEmptyPipeline: cond false immediately.
func TestEmptyPipeline(t *testing.T) {
	e := newTestEngine(t, 2)
	ran := false
	e.PipeWhile(func() bool { return false }, func(it *Iter) { ran = true })
	if ran {
		t.Fatal("body ran despite false condition")
	}
}

// TestSerialSingleStage: a pipeline whose body never leaves stage 0 must
// behave exactly like a serial loop.
func TestSerialSingleStage(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 500
	i := 0
	var order []int
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		order = append(order, i) // safe: stage 0 is serial
		i++
	})
	if len(order) != n {
		t.Fatalf("ran %d iterations, want %d", len(order), n)
	}
	for k, v := range order {
		if v != k {
			t.Fatalf("order[%d] = %d", k, v)
		}
	}
}

// TestSPSPipelineOrder checks the ferret shape: serial stage 0, parallel
// stage 1, serial stage 2. Stage 2 must observe iterations in order.
func TestSPSPipelineOrder(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 300
	i := 0
	var outputs []int64
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1) // parallel stage
		// some work
		x := it.Index() * it.Index()
		_ = x
		it.Wait(2) // serial stage
		outputs = append(outputs, it.Index())
	})
	if len(outputs) != n {
		t.Fatalf("got %d outputs, want %d", len(outputs), n)
	}
	for k, v := range outputs {
		if v != int64(k) {
			t.Fatalf("stage-2 order violated: outputs[%d] = %d", k, v)
		}
	}
}

// TestCrossEdgeSafety logs node start/end events and verifies node (i,j)
// never starts before node (i-1,j) completes, for a pipeline with several
// serial stages.
func TestCrossEdgeSafety(t *testing.T) {
	e := newTestEngine(t, 4)
	const n, stages = 200, 4
	// completed[j] = highest iteration whose node (i,j) finished.
	var completed [stages]atomic.Int64
	for j := range completed {
		completed[j].Store(-1)
	}
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		for j := 1; j < stages; j++ {
			it.Wait(int64(j))
			// Node (idx, j) starts now; (idx-1, j) must have completed.
			if c := completed[j].Load(); c < idx-1 {
				t.Errorf("node (%d,%d) started before (%d,%d) completed (saw %d)",
					idx, j, idx-1, j, c)
			}
			if !completed[j].CompareAndSwap(idx-1, idx) {
				t.Errorf("stage %d completions out of order at iteration %d", j, idx)
			}
		}
	})
}

// TestStageSkipping exercises null nodes: odd iterations skip stages.
func TestStageSkipping(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 128
	i := 0
	var last atomic.Int64
	last.Store(-1)
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		if idx%2 == 0 {
			it.Wait(1)
			it.Wait(2)
			it.Wait(3)
		} else {
			it.Wait(3) // skips 1 and 2: null nodes collapse
		}
		it.Wait(5) // everyone waits on stage 5
		if !last.CompareAndSwap(idx-1, idx) {
			t.Errorf("stage-5 order violated at iteration %d", idx)
		}
	})
	if last.Load() != n-1 {
		t.Fatalf("final iteration %d, want %d", last.Load(), n-1)
	}
}

// TestThrottleInvariant verifies at most K iterations are ever live.
func TestThrottleInvariant(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			e := newTestEngine(t, 4)
			const n = 200
			var live, peak atomic.Int64
			i := 0
			rep := e.RunPipeline(k, func() bool { return i < n }, func(it *Iter) {
				l := live.Add(1)
				for {
					p := peak.Load()
					if l <= p || peak.CompareAndSwap(p, l) {
						break
					}
				}
				i++
				it.Continue(1)
				runtime.Gosched()
				live.Add(-1)
			})
			if p := peak.Load(); p > int64(k) {
				t.Fatalf("observed %d live iterations, throttle K=%d", p, k)
			}
			if rep.MaxLiveIterations > int64(k) {
				t.Fatalf("reported max live %d > K=%d", rep.MaxLiveIterations, k)
			}
			if rep.Iterations != n {
				t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
			}
		})
	}
}

// TestPipelineResultDeterminism: output identical for P = 1..8.
func TestPipelineResultDeterminism(t *testing.T) {
	run := func(workers int) []int64 {
		e := newTestEngine(t, workers)
		const n = 400
		i := 0
		acc := make([]int64, 0, n)
		e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
			i++
			it.Continue(1)
			v := it.Index() * 7 % 13 // parallel compute
			it.Wait(2)
			acc = append(acc, v)
		})
		return acc
	}
	want := run(1)
	for _, p := range []int{2, 4, 8} {
		got := run(p)
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d outputs, want %d", p, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("P=%d: output[%d] = %d, want %d", p, k, got[k], want[k])
			}
		}
	}
}

// TestStrictStageIncrease: misusing stages panics, and the panic
// propagates out of PipeWhile.
func TestStrictStageIncrease(t *testing.T) {
	e := newTestEngine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from decreasing stage number")
		}
	}()
	i := 0
	e.PipeWhile(func() bool { return i < 3 }, func(it *Iter) {
		i++
		it.Continue(5)
		it.Wait(2) // decreasing: must panic
	})
}

// TestUserPanicPropagates: a panic in a parallel stage surfaces in the
// caller of PipeWhile.
func TestUserPanicPropagates(t *testing.T) {
	e := newTestEngine(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected user panic to propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	i := 0
	e.PipeWhile(func() bool { return i < 50 }, func(it *Iter) {
		idx := it.Index()
		i++
		it.Continue(1)
		if idx == 25 {
			panic("boom")
		}
	})
}

// TestForkJoinSum: Go/Sync inside a stage computes a correct sum.
func TestForkJoinSum(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 50
	i := 0
	var total atomic.Int64
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		var parts [4]int64
		for g := 0; g < 4; g++ {
			g := g
			it.Go(func() { parts[g] = int64(g + 1) })
		}
		it.Sync()
		var s int64
		for _, p := range parts {
			s += p
		}
		total.Add(s)
	})
	if got, want := total.Load(), int64(n*10); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// TestParallelFor: For covers every index exactly once.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("P=%d", workers), func(t *testing.T) {
			e := newTestEngine(t, workers)
			const n = 10000
			counts := make([]atomic.Int32, n)
			i := 0
			e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
				i++
				it.Continue(1)
				it.For(n, 16, func(j int) { counts[j].Add(1) })
			})
			for j := range counts {
				if c := counts[j].Load(); c != 1 {
					t.Fatalf("index %d visited %d times", j, c)
				}
			}
		})
	}
}

// TestNestedPipeline runs a pipeline inside a pipeline stage.
func TestNestedPipeline(t *testing.T) {
	e := newTestEngine(t, 4)
	const outer, inner = 20, 30
	i := 0
	var total atomic.Int64
	e.PipeWhile(func() bool { return i < outer }, func(it *Iter) {
		i++
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { return j < inner }, func(in *Iter) {
			j++
			in.Continue(1)
			total.Add(1)
		})
	})
	if got, want := total.Load(), int64(outer*inner); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// TestNestedPipelineInStage0Panics enforces the documented restriction.
func TestNestedPipelineInStage0Panics(t *testing.T) {
	e := newTestEngine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nested pipeline in stage 0")
		}
	}()
	i := 0
	e.PipeWhile(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.PipeWhile(func() bool { return false }, func(*Iter) {})
	})
}

// TestConcurrentPipelines: several top-level pipelines share one engine.
func TestConcurrentPipelines(t *testing.T) {
	e := newTestEngine(t, 4)
	const pipes = 6
	done := make(chan int64, pipes)
	for p := 0; p < pipes; p++ {
		go func() {
			var sum int64
			i := 0
			e.PipeWhile(func() bool { return i < 100 }, func(it *Iter) {
				i++
				it.Continue(1)
				v := it.Index()
				it.Wait(2)
				sum += v
			})
			done <- sum
		}()
	}
	for p := 0; p < pipes; p++ {
		if s := <-done; s != 99*100/2 {
			t.Fatalf("pipeline sum = %d, want %d", s, 99*100/2)
		}
	}
}

// TestHybridStages: data-dependent Wait vs Continue, the x264 pattern.
func TestHybridStages(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 150
	i := 0
	var serialOrder []int64
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		if idx%3 == 0 {
			it.Continue(1) // "I-frame": no dependency
		} else {
			it.Wait(1) // "P-frame": cross edge
		}
		it.Wait(2)
		serialOrder = append(serialOrder, idx)
	})
	for k, v := range serialOrder {
		if v != int64(k) {
			t.Fatalf("serial stage order violated at %d: %d", k, v)
		}
	}
}

// TestStatsPlausible: counters move in the expected directions.
func TestStatsPlausible(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 256
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Wait(1)
		runtime.Gosched()
		it.Wait(2)
	})
	s := e.Stats()
	if s.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", s.Iterations, n)
	}
	if s.Pipelines != 1 {
		t.Fatalf("Pipelines = %d, want 1", s.Pipelines)
	}
	if s.Segments == 0 {
		t.Fatal("Segments should be nonzero")
	}
	if s.CrossChecks == 0 {
		t.Fatal("CrossChecks should be nonzero for serial stages")
	}
}

// TestDependencyFoldingReducesChecks verifies the folding cache skips
// shared-counter reads for already-satisfied cross edges. This is a
// deterministic unit test on the frame protocol: a predecessor parked far
// ahead at stage 50 satisfies waits on stages 1..49 with a single read.
func TestDependencyFoldingReducesChecks(t *testing.T) {
	run := func(folding bool) (checks, hits int64) {
		opts := DefaultOptions()
		opts.Workers = 1
		opts.DependencyFolding = folding
		e := NewEngine(opts)
		defer e.Close()
		prev := &frame{kind: kindIter, eng: e}
		prev.stage.Store(50)
		f := &frame{kind: kindIter, eng: e, prev: prev}
		for j := int64(1); j < 50; j++ {
			if !f.crossSatisfied(j) {
				t.Fatalf("stage %d should be satisfied (prev at 50)", j)
			}
		}
		return f.nCrossChecks, f.nFoldHits
	}
	checksFolded, hitsFolded := run(true)
	checksPlain, hitsPlain := run(false)
	if checksFolded != 1 {
		t.Fatalf("folded: %d counter reads, want 1", checksFolded)
	}
	if hitsFolded != 48 {
		t.Fatalf("folded: %d cache hits, want 48", hitsFolded)
	}
	if checksPlain != 49 || hitsPlain != 0 {
		t.Fatalf("unfolded: %d reads %d hits, want 49 and 0", checksPlain, hitsPlain)
	}
}

// TestFoldingPipelineSmoke: folding produces cache hits in a real
// fine-grained pipeline and never changes results.
func TestFoldingPipelineSmoke(t *testing.T) {
	for _, folding := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.DependencyFolding = folding
		e := NewEngine(opts)
		const n, stages = 64, 100
		i := 0
		var order []int64
		e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
			i++
			for j := int64(1); j <= stages; j++ {
				it.Wait(j)
			}
			if it.Stage() != stages {
				t.Errorf("stage = %d, want %d", it.Stage(), stages)
			}
			order = append(order, it.Index())
		})
		for k, v := range order {
			if v != int64(k) {
				t.Fatalf("folding=%v: order violated at %d", folding, k)
			}
		}
		e.Close()
	}
}

// TestEagerEnablingAblation: the eager path wakes suspended successors.
func TestEagerEnablingAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.EagerEnabling = true
	e := NewEngine(opts)
	defer e.Close()
	const n = 200
	i := 0
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Wait(1)
		runtime.Gosched()
		it.Wait(2)
		it.Wait(3)
	})
	// Correctness alone is the point; the counter just confirms the path ran.
	s := e.Stats()
	if s.EagerEnables == 0 && s.CrossSuspends > 0 {
		t.Log("note: no eager enables despite suspends (scheduling-dependent)")
	}
	// The ablation's wakes stay its own, parked worker or not.
	if s.ParkedEnables != 0 {
		t.Errorf("ParkedEnables = %d under EagerEnabling, want 0", s.ParkedEnables)
	}
}

// TestTailSwapDisabled still computes correctly.
func TestTailSwapDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.TailSwap = false
	opts.Throttle = 4
	e := NewEngine(opts)
	defer e.Close()
	const n = 300
	i := 0
	var order []int64
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
		order = append(order, it.Index())
	})
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d", k)
		}
	}
}

// TestIterationLocalState: Wait provides happens-before with the
// predecessor's completed node, so per-iteration chained state is safe.
func TestIterationLocalState(t *testing.T) {
	e := newTestEngine(t, 4)
	const n = 300
	i := 0
	chain := make([]int64, n+1) // chain[i+1] = chain[i] + 1, written at stage 2
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		it.Continue(1)
		it.Wait(2)
		chain[idx+1] = chain[idx] + 1 // needs (idx-1, 2) complete: guaranteed
	})
	if chain[n] != n {
		t.Fatalf("chain[%d] = %d, want %d", n, chain[n], n)
	}
}

// TestWaitNextContinueNext: implicit stage arguments.
func TestWaitNextContinueNext(t *testing.T) {
	e := newTestEngine(t, 2)
	const n = 64
	i := 0
	var order []int64
	e.PipeWhile(func() bool { return i < n }, func(it *Iter) {
		i++
		it.ContinueNext() // stage 1
		if got := it.Stage(); got != 1 {
			t.Errorf("stage = %d, want 1", got)
		}
		it.WaitNext() // stage 2
		order = append(order, it.Index())
	})
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d", k)
		}
	}
}

// TestEngineReuse: many pipelines sequentially on the same engine.
func TestEngineReuse(t *testing.T) {
	e := newTestEngine(t, 4)
	for rep := 0; rep < 20; rep++ {
		i := 0
		var count int
		e.PipeWhile(func() bool { return i < 50 }, func(it *Iter) {
			i++
			it.Continue(1)
			it.Wait(2)
			count++
		})
		if count != 50 {
			t.Fatalf("rep %d: count = %d", rep, count)
		}
	}
}

// TestClosedEnginePanics.
func TestClosedEnginePanics(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	e := NewEngine(opts)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on closed engine")
		}
	}()
	e.PipeWhile(func() bool { return false }, func(*Iter) {})
}

// TestManyWorkersFewIterations: P much larger than the pipeline width.
func TestManyWorkersFewIterations(t *testing.T) {
	e := newTestEngine(t, 8)
	i := 0
	var count atomic.Int64
	e.PipeWhile(func() bool { return i < 3 }, func(it *Iter) {
		i++
		it.Continue(1)
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("count = %d", count.Load())
	}
}

// TestDeepStages: a single iteration with very many stages.
func TestDeepStages(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	e.PipeWhile(func() bool { return i < 4 }, func(it *Iter) {
		i++
		for j := int64(1); j <= 5000; j++ {
			it.Wait(j)
		}
	})
	if s := e.Stats(); s.Iterations != 4 {
		t.Fatalf("iterations = %d", s.Iterations)
	}
}
