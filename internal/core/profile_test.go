package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"piper/internal/dag"
	"piper/internal/workload"
)

// The exact profile tests run ProfilePipeline on a costClock: every body
// declares what it costs with spend, so the profile is a function of the
// declared costs alone, and T1 and T∞ must equal those of the dag built by
// hand from the same costs, to the nanosecond, on any host and under the
// race detector.

// exactEngine returns a workers-wide engine whose clock is clk.
func exactEngine(t *testing.T, workers int, clk *costClock) *Engine {
	return newEngineOpts(t, func(o *Options) {
		o.Workers = workers
		o.hooks = withClock(nil, clk.ns.Load)
	})
}

// us is n microseconds of declared cost.
func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// ns is a declared cost as a dag weight.
func ns(d time.Duration) int64 { return int64(d) }

// checkProfile asserts that rep is the profile of want: its iterations,
// T1 = work and T∞ = want.Span(), where want's node weights are node
// spans. work is want.Work() unless a node forks, when its work exceeds
// its span.
func checkProfile(t *testing.T, rep PipelineReport, want *dag.Pipeline, work int64) {
	t.Helper()
	if err := want.Validate(); err != nil {
		t.Fatalf("hand-built dag: %v", err)
	}
	if rep.Iterations != int64(len(want.Iters)) || rep.WorkNs != work || rep.SpanNs != want.Span() {
		t.Errorf("profile: %d iterations, T1 %d ns, T∞ %d ns; dag: %d iterations, T1 %d ns, T∞ %d ns",
			rep.Iterations, rep.WorkNs, rep.SpanNs, len(want.Iters), work, want.Span())
	}
	if want.Span() >= work {
		t.Errorf("degenerate case: T∞ %d ns is not below T1 %d ns", want.Span(), work)
	}
}

// TestProfileExactSPSChain: serial, parallel, serial stages of uneven
// cost. The loop condition is part of the stage-0 node of the iteration
// it starts; the final, failing evaluation belongs to no node. The
// profile runs without the engine's scheduler.
func TestProfileExactSPSChain(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n = 6
	cost := func(k, j int) time.Duration { return us(1 + (k*7+j*3)%5) }
	i := 0
	rep := e.ProfilePipeline(0, func() bool { clk.spend(us(1)); return i < n }, func(it *Iter) {
		k := int(it.Index())
		i++
		clk.spend(cost(k, 0))
		it.Continue(1)
		clk.spend(10 * cost(k, 1))
		it.Wait(2)
		clk.spend(cost(k, 2))
	})
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		want.Iters = append(want.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(1) + cost(k, 0)), Cross: k > 0},
			{Stage: 1, Weight: ns(10 * cost(k, 1))},
			{Stage: 2, Weight: ns(cost(k, 2)), Cross: k > 0},
		})
	}
	checkProfile(t, rep, want, want.Work())
	if s := e.Stats(); s.Pipelines != 0 || s.Iterations != 0 {
		t.Errorf("profile ran on the scheduler: %d pipelines, %d iterations", s.Pipelines, s.Iterations)
	}
}

// TestProfileExactSkippedStage: even iterations run stages 0, 1, 3 and
// odd ones 0, 2, 3, every edge a Wait. A skipped stage is a null node, so
// each cross edge into a stage the predecessor skipped collapses onto the
// predecessor's last real node before it.
func TestProfileExactSkippedStage(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n = 7
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < n }, func(it *Iter) {
		k := int(it.Index())
		i++
		clk.spend(us(2))
		it.Wait(int64(1 + k%2))
		clk.spend(us(5 + 10*(k%2)))
		it.Wait(3)
		clk.spend(us(3))
	})
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		want.Iters = append(want.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(2)), Cross: k > 0},
			{Stage: int64(1 + k%2), Weight: ns(us(5 + 10*(k%2))), Cross: true},
			{Stage: 3, Weight: ns(us(3)), Cross: true},
		})
	}
	want.Iters[0][1].Cross, want.Iters[0][2].Cross = false, false
	checkProfile(t, rep, want, want.Work())
}

// TestProfileExactWaitContinue: every third iteration enters its row
// stages by Continue and carries no cross edge there, as x264's I-frames
// do; the others Wait.
func TestProfileExactWaitContinue(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n, rows = 9, 3
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < n }, func(it *Iter) {
		k := int(it.Index())
		i++
		clk.spend(us(1))
		for r := 1; r <= rows; r++ {
			if k%3 == 0 {
				it.Continue(int64(r))
			} else {
				it.Wait(int64(r))
			}
			clk.spend(us(4 * r))
		}
	})
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		nodes := []dag.Node{{Stage: 0, Weight: ns(us(1)), Cross: k > 0}}
		for r := 1; r <= rows; r++ {
			nodes = append(nodes, dag.Node{Stage: int64(r), Weight: ns(us(4 * r)), Cross: k%3 != 0})
		}
		want.Iters = append(want.Iters, nodes)
	}
	checkProfile(t, rep, want, want.Work())
}

// TestProfileExactForkJoin: Go children run beside the continuation. Node
// 1 spawns two children and joins them with Sync; node 2's child is still
// outstanding at the Wait and joins at that stage boundary; node 3's
// child joins implicitly at body end.
func TestProfileExactForkJoin(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n = 4
	spend := func(u int) func() { return func() { clk.spend(us(u)) } }
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < n }, func(it *Iter) {
		i++
		clk.spend(us(1))
		it.Continue(1)
		clk.spend(us(10))
		it.Go(spend(50)) // path 10+50
		clk.spend(us(20))
		it.Go(spend(25)) // path 30+25
		clk.spend(us(3))
		it.Sync() // max(33, 60)
		clk.spend(us(5))
		it.Continue(2)
		clk.spend(us(5))
		it.Go(spend(30)) // path 5+30
		clk.spend(us(5))
		it.Wait(3) // joins: max(10, 35)
		clk.spend(us(10))
		it.Go(spend(40)) // path 10+40
		clk.spend(us(5))
	}) // joins: max(15, 50)
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		want.Iters = append(want.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(1)), Cross: k > 0},
			{Stage: 1, Weight: ns(us(65))},
			{Stage: 2, Weight: ns(us(35))},
			{Stage: 3, Weight: ns(us(50)), Cross: k > 0},
		})
	}
	checkProfile(t, rep, want, n*ns(us(1+113+40+55)))
}

// TestProfileExactForLeaves: For runs the engine's leaf chunks beside
// each other. With grain 3, [0, 10) splits into [0,2) [2,5) [5,7) [7,10);
// with the automatic grain on two workers, 32/16+1 = 3, [0, 32) splits
// into chunks of two.
func TestProfileExactForLeaves(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n = 3
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < n }, func(it *Iter) {
		i++
		clk.spend(us(1))
		it.Continue(1)
		it.For(10, 3, func(x int) { clk.spend(us(x + 1)) }) // chunks 3, 12, 13, 27
		it.For(32, 0, func(int) { clk.spend(us(1)) })       // sixteen chunks of 2
		it.Wait(2)
		clk.spend(us(2))
	})
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		want.Iters = append(want.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(1)), Cross: k > 0},
			{Stage: 1, Weight: ns(us(27 + 2))},
			{Stage: 2, Weight: ns(us(2)), Cross: k > 0},
		})
	}
	checkProfile(t, rep, want, n*ns(us(1+55+32+2)))
}

// TestProfileExactNested: a nested pipeline adds its own T1 to its node's
// work and its own T∞ to the node's span.
func TestProfileExactNested(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	const n, m = 3, 4
	inner := &dag.Pipeline{}
	for k := 0; k < m; k++ {
		inner.Iters = append(inner.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(1)), Cross: k > 0},
			{Stage: 1, Weight: ns(us(8 * (k + 1)))},
			{Stage: 2, Weight: ns(us(2)), Cross: k > 0},
		})
	}
	i := 0
	rep := e.ProfilePipeline(0, func() bool { return i < n }, func(it *Iter) {
		i++
		clk.spend(us(2))
		it.Continue(1)
		clk.spend(us(5))
		j := 0
		it.PipeWhile(func() bool { return j < m }, func(in *Iter) {
			j++
			clk.spend(us(1))
			in.Continue(1)
			clk.spend(us(8 * (int(in.Index()) + 1)))
			in.Wait(2)
			clk.spend(us(2))
		})
		clk.spend(us(3))
		it.Wait(2)
		clk.spend(us(4))
	})
	want := &dag.Pipeline{}
	for k := 0; k < n; k++ {
		want.Iters = append(want.Iters, []dag.Node{
			{Stage: 0, Weight: ns(us(2)), Cross: k > 0},
			{Stage: 1, Weight: ns(us(5+3)) + inner.Span()},
			{Stage: 2, Weight: ns(us(4)), Cross: k > 0},
		})
	}
	checkProfile(t, rep, want, n*(ns(us(2+5+3+4))+inner.Work()))
}

// TestProfileRepanics: a panic in a profiled body reaches the caller with
// its own value, and the serial contract check still guards the profiled
// frame: a fork-join scope left live at iteration exit is an internal
// error. Neither touches the engine.
func TestProfileRepanics(t *testing.T) {
	var clk costClock
	e := exactEngine(t, 2, &clk)
	type boom struct{ at int64 }
	recovered := func(body func(*Iter)) (v any) {
		defer func() { v = recover() }()
		i := 0
		e.ProfilePipeline(0, func() bool { i++; return i <= 5 }, body)
		return nil
	}
	v := recovered(func(it *Iter) {
		it.Continue(1)
		clk.spend(us(1))
		if it.Index() == 2 {
			panic(boom{it.Index()})
		}
	})
	if v != (boom{2}) {
		t.Errorf("profiled body panic recovered as %#v, want boom{2}", v)
	}
	v = recovered(func(it *Iter) {
		it.Continue(1)
		it.f.curScope = &scope{owner: it.f}
	})
	if s, _ := v.(string); !strings.Contains(s, "live fork-join scope") {
		t.Errorf("profiled frame with a live scope recovered as %#v, want the contract check's panic", v)
	}
	i := 0
	if rep := e.ProfilePipeline(0, func() bool { i++; return i <= 3 }, func(it *Iter) {
		clk.spend(us(1))
		it.Wait(1)
	}); rep.Iterations != 3 || rep.WorkNs != ns(us(3)) {
		t.Errorf("profile after the panics: %+v", rep)
	}
	checkEngineDrained(t, e)
}

// The tests below profile real bodies on the real clock. They use nodes
// big enough (tens of µs) to amortize timer and GC noise, run a collection
// first, assert loose bounds, and retry a few times: on a small shared
// host a single background hiccup can distort one run.

// retryTiming runs attempt up to 3 times and fails only if every attempt
// returns a non-empty problem description.
func retryTiming(t *testing.T, attempt func() string) {
	t.Helper()
	var last string
	for try := 0; try < 3; try++ {
		runtime.GC()
		if last = attempt(); last == "" {
			return
		}
	}
	t.Fatal(last)
}

func TestProfileSerialChain(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("wall-clock assertions are meaningless under the race detector")
	}
	e := newTestEngine(t, 2)
	retryTiming(t, func() string {
		i := 0
		rep := e.ProfilePipeline(8, func() bool { return i < 40 }, func(it *Iter) {
			i++
			workload.SpinMicros(100)
			it.Wait(1)
			workload.SpinMicros(100)
		})
		if rep.WorkNs <= 0 || rep.SpanNs <= 0 {
			return "profile produced no data"
		}
		// Work ≈ 40 iterations × 200µs; spin calibration drift and host
		// noise allow a generous band.
		if rep.WorkNs < 2_000_000 {
			return "work implausibly small"
		}
		if par := rep.Parallelism(); par < 0.5 || par > 3 {
			return "serial-ish SS pipeline parallelism out of band"
		}
		return ""
	})
}

// TestProfileSPSParallelism: with a heavy parallel middle stage of weight
// r and unit serial stages, parallelism should be well above 1 and grow
// with r (Section 1's analysis gives ≈ r/2 + 1).
func TestProfileSPSParallelism(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("wall-clock assertions are meaningless under the race detector")
	}
	e := newTestEngine(t, 1)
	run := func(r int64) float64 {
		runtime.GC()
		i := 0
		rep := e.ProfilePipeline(64, func() bool { return i < 60 }, func(it *Iter) {
			i++
			workload.SpinMicros(25)
			it.Continue(1)
			workload.SpinMicros(25 * r)
			it.Wait(2)
			workload.SpinMicros(25)
		})
		return rep.Parallelism()
	}
	retryTiming(t, func() string {
		p4 := run(4)
		p32 := run(32)
		if p4 < 1.3 {
			return "SPS r=4 parallelism too low"
		}
		if p32 < p4+2 || p32 < 5 {
			return "parallelism did not grow with r"
		}
		if p32 > 40 {
			return "r=32 parallelism exceeds any plausible bound"
		}
		return ""
	})
}

// TestProfileWorkMatchesSerialTime: the measured work must be in the
// ballpark of the nominal spin time.
func TestProfileWorkMatchesSerialTime(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("wall-clock assertions are meaningless under the race detector")
	}
	e := newTestEngine(t, 1)
	retryTiming(t, func() string {
		const n = 30
		// Reference: the same spins, run directly. Comparing measured
		// work against a co-measured baseline (instead of nominal µs)
		// keeps the test valid under host load, when every spin slows
		// down equally.
		direct := nowNs()
		for k := 0; k < n; k++ {
			workload.SpinMicros(100)
			workload.SpinMicros(100)
		}
		directNs := nowNs() - direct
		i := 0
		rep := e.ProfilePipeline(4, func() bool { return i < n }, func(it *Iter) {
			i++
			workload.SpinMicros(100)
			it.Wait(1)
			workload.SpinMicros(100)
		})
		if rep.WorkNs < directNs/3 || rep.WorkNs > directNs*3 {
			return "measured work far from directly measured spin time"
		}
		if rep.SpanNs > rep.WorkNs {
			return "span exceeds work"
		}
		return ""
	})
}

// TestUninstrumentedReportsZero: RunPipeline does not profile.
func TestUninstrumentedReportsZero(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	rep := e.RunPipeline(4, func() bool { return i < 10 }, func(it *Iter) {
		i++
		it.Wait(1)
	})
	if rep.WorkNs != 0 || rep.SpanNs != 0 {
		t.Fatalf("unprofiled run reported work/span: %+v", rep)
	}
	if rep.Parallelism() != 0 {
		t.Fatal("parallelism should be 0 without a profile")
	}
}
