package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"piper/internal/workload"
)

// --- RunSerial -------------------------------------------------------------

func TestRunSerialMatchesParallel(t *testing.T) {
	runPipe := func(exec func(cond func() bool, body func(*Iter))) []int64 {
		var out []int64
		i := 0
		exec(func() bool { return i < 200 }, func(it *Iter) {
			i++
			it.Continue(1)
			v := it.Index() * 3
			it.Wait(2)
			out = append(out, v)
		})
		return out
	}
	serial := runPipe(func(c func() bool, b func(*Iter)) { RunSerial(c, b) })
	e := newTestEngine(t, 4)
	parallel := runPipe(func(c func() bool, b func(*Iter)) { e.PipeWhile(c, b) })
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for k := range serial {
		if serial[k] != parallel[k] {
			t.Fatalf("output %d differs: %d vs %d", k, serial[k], parallel[k])
		}
	}
}

func TestRunSerialStageDiscipline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunSerial must enforce strictly increasing stages")
		}
	}()
	i := 0
	RunSerial(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(5)
		it.Wait(2)
	})
}

func TestRunSerialForkJoinElision(t *testing.T) {
	var sum int
	i := 0
	RunSerial(func() bool { return i < 3 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Go(func() { sum++ })
		it.Sync()
		it.For(10, 3, func(k int) { sum += k })
	})
	if sum != 3*(1+45) {
		t.Fatalf("sum = %d, want %d", sum, 3*46)
	}
}

func TestRunSerialNestedPipeline(t *testing.T) {
	e := newTestEngine(t, 2)
	_ = e
	var count int
	i := 0
	RunSerial(func() bool { return i < 4 }, func(it *Iter) {
		i++
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { return j < 5 }, func(in *Iter) {
			j++
			in.Continue(1)
			count++
		})
	})
	if count != 20 {
		t.Fatalf("count = %d", count)
	}
}

func TestRunSerialReport(t *testing.T) {
	i := 0
	rep := RunSerial(func() bool { return i < 7 }, func(it *Iter) { i++ })
	if rep.Iterations != 7 || rep.MaxLiveIterations != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunSerialIndexAndStage(t *testing.T) {
	i := 0
	RunSerial(func() bool { return i < 3 }, func(it *Iter) {
		if it.Index() != int64(i) {
			t.Errorf("index = %d, want %d", it.Index(), i)
		}
		i++
		it.Wait(4)
		if it.Stage() != 4 {
			t.Errorf("stage = %d, want 4", it.Stage())
		}
	})
}

// --- Adaptive throttling -----------------------------------------------------

// TestAdaptiveFixedWhenBoundsEqual behaves exactly like a fixed window.
func TestAdaptiveFixedWhenBoundsEqual(t *testing.T) {
	e := newTestEngine(t, 4)
	var peak atomic.Int64
	var live atomic.Int64
	i := 0
	rep := e.RunPipelineAdaptive(3, 3, func() bool { return i < 100 }, func(it *Iter) {
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
	if peak.Load() > 3 {
		t.Fatalf("live iterations %d exceeded fixed bound 3", peak.Load())
	}
	if rep.FinalThrottle != 3 {
		t.Fatalf("final throttle = %d, want 3", rep.FinalThrottle)
	}
}

// TestAdaptiveGrowsUnderStarvation: the Figure 10 pathology with idle
// workers must widen the window beyond the minimum. The growth trigger
// (idle workers while window-bound) is scheduling-dependent, so the test
// retries with increasingly heavy iterations under host load. It runs on
// the coroutine tier: the per-segment handshakes interleave the workers
// enough to surface window-boundness even at GOMAXPROCS < P, whereas the
// inline tier may legitimately serialize the whole pipeline there (greedy
// inline iterations never block, so starvation cannot arise to trigger
// growth).
func TestAdaptiveGrowsUnderStarvation(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 4; o.InlineFastPath = false })
	attempt := func(heavyMicros int64) bool {
		// One heavy iteration blocks the serial tail stage while light
		// ones pile up: with kMin=2 the pipeline starves 3 of 4 workers.
		i := 0
		const n = 120
		rep := e.RunPipelineAdaptive(2, 64, func() bool { return i < n }, func(it *Iter) {
			idx := it.Index()
			i++
			it.Continue(1)
			if idx%30 == 0 {
				workload.SpinMicros(heavyMicros)
			} else {
				workload.SpinMicros(50) // light
			}
			it.Wait(2) // serial tail: everyone queues behind the heavy one
		})
		if rep.MaxLiveIterations > 64 {
			t.Fatalf("adaptive window exceeded kMax: %d", rep.MaxLiveIterations)
		}
		return rep.MaxLiveIterations > 2
	}
	for _, heavy := range []int64{3000, 10000, 30000} {
		if attempt(heavy) {
			if e.Stats().ThrottleGrows == 0 {
				t.Fatal("window grew but ThrottleGrows == 0")
			}
			return
		}
	}
	t.Fatal("adaptive window never grew despite starvation")
}

// TestAdaptiveNeverExceedsMax under a pile-up workload.
func TestAdaptiveNeverExceedsMax(t *testing.T) {
	e := newTestEngine(t, 4)
	var live, peak atomic.Int64
	i := 0
	e.RunPipelineAdaptive(1, 5, func() bool { return i < 200 }, func(it *Iter) {
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
		it.Wait(2)
		live.Add(-1)
	})
	if peak.Load() > 5 {
		t.Fatalf("live iterations %d exceeded kMax 5", peak.Load())
	}
}

// TestAdaptiveShrinks: a pipeline that stops being window-bound gives
// space back.
func TestAdaptiveShrinks(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	const n = 400
	rep := e.RunPipelineAdaptive(2, 32, func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		it.Continue(1)
		if idx < 40 && idx%10 == 0 {
			workload.SpinMicros(2000) // early heavy phase grows the window
		}
		it.Wait(2)
	})
	s := e.Stats()
	if s.ThrottleGrows > 0 && s.ThrottleShrinks == 0 {
		t.Log("note: window grew but never shrank (schedule-dependent)")
	}
	_ = rep
}

// TestAdaptiveCorrectOutput: adaptation must not disturb semantics.
func TestAdaptiveCorrectOutput(t *testing.T) {
	e := newTestEngine(t, 4)
	var order []int64
	i := 0
	e.RunPipelineAdaptive(1, 16, func() bool { return i < 300 }, func(it *Iter) {
		i++
		it.Continue(1)
		v := it.Index()
		it.Wait(2)
		order = append(order, v)
	})
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("order violated at %d: %d", k, v)
		}
	}
}
