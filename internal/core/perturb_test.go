package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

// Schedule-perturbation tests: seeded random delays and forced scheduling
// decisions injected at the schedHooks points (see hooks.go) widen the
// interleaving space the differential comparison explores. Batching
// changes *which* interleavings occur — deferred control releases remove
// steal opportunities, splits reintroduce them at new places — so the
// perturbed matrix runs the same oracle programs over Grain(1) and
// adaptive grain, compiled and interpreted, plus a forced
// injection-overflow storm, and requires bit-identical results, intact
// serial-stage ordering, and a fully drained engine every time.

// newPerturber builds a seeded hook set. The hook functions are called
// concurrently from every worker goroutine, so the RNG is mutex-guarded —
// the lock itself is one more (harmless) perturbation source.
func newPerturber(seed uint64) *schedHooks {
	var mu sync.Mutex
	rng := workload.NewRNG(seed)
	roll := func(n int) int {
		mu.Lock()
		v := rng.Intn(n)
		mu.Unlock()
		return v
	}
	return &schedHooks{
		point: func(p hookPoint) {
			switch roll(16) {
			case 0:
				// Stretch the window: long enough to let a racing worker
				// run, short enough to keep the matrix fast.
				time.Sleep(time.Duration(1+roll(20)) * time.Microsecond)
			case 1, 2:
				runtime.Gosched()
			}
			if p == hookParkPublish && roll(4) == 0 {
				// The publish-then-recheck window is where wakers race the
				// parking frame; hit it harder than the other points.
				runtime.Gosched()
			}
		},
		forceOverflow: func() bool { return roll(8) == 0 },
		stealFirst:    func() bool { return roll(4) == 0 },
		clock:         seededClock(seed),
	}
}

// seededClock makes the cost-bounded claim part of a seeded schedule: a
// virtual clock for openBatch that every read advances by a power of two
// between 1 ns and 131 µs, so a one-slot claim measures coarse about one
// time in three and an eight-slot one about one in six, and an adaptive
// pipeline ramps and drops by the seed alone — under the race detector
// too, where the real per-iteration protocol costs more than coarseIterNs
// and nothing would ever batch.
func seededClock(seed uint64) func() int64 {
	var mu sync.Mutex
	rng := workload.NewRNG(seed ^ 0xc10c)
	var now int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		now += 1 << rng.Intn(18)
		return now
	}
}

// perturbPrograms are fixed oracle programs (decoded through the fuzz
// harness's decoder) covering cross edges, skipped stages, fork-join,
// nesting, and the degenerate empty pipeline.
func perturbPrograms() []fuzzProgram {
	inputs := [][]byte{
		{},
		{2, 3, 24, 3, fopWait, 1, fopFork, 2, fopContinue, 0},
		{1, 0, 20, 3, fopWait, 2, fopCompute, 7, fopWait, 0},
		{3, 7, 24, 4, fopContinue, 0, fopNested, 2, fopWait, 1, fopFork, 0},
		{0, 1, 24, 5, fopWait, 2, fopContinue, 2, fopWait, 0, fopWait, 1, fopCompute, 3},
		{3, 2, 24, 2, fopFork, 2, fopWait, 1, fopNested, 1, fopWait, 2},
	}
	ps := make([]fuzzProgram, 0, len(inputs)+1)
	for _, in := range inputs {
		ps = append(ps, decodeProgram(in))
	}
	// The decoder pads an exhausted input with empty iterations, so the
	// programs above put their ops in iteration 0 and never wait on a busy
	// predecessor. This one waits in every iteration, so that a successor
	// reaching a Wait its perturbed predecessor has not passed must promote,
	// park, and be found by a check-right (65 or more cross suspends per
	// configuration when it was added, at GOMAXPROCS 1, 2 and 4).
	chain := fuzzProgram{workers: 4, throttle: 8, iters: make([][]fuzzOp, 200)}
	for i := range chain.iters {
		chain.iters[i] = []fuzzOp{{fopWait, 0}, {fopCompute, byte(i)}, {fopWait, 0}, {fopFork, 1}, {fopWait, 1}}
	}
	return append(ps, chain)
}

// TestSchedulePerturbationMatrix is the perturbed differential matrix:
// every program must reproduce its sequential oracle bit for bit under
// every configuration and seed, with the serial-stage ordering invariant
// checked on the fly by runFuzzProgram. Every iteration starts inline, so
// the suspend path (promote, parkOnCross, driveSegment, tryWakeRight) is
// walked only when an edge is really unsatisfied; each configuration must
// therefore show, summed over its seeds, that iterations promoted, parked
// on cross edges, and were found and resumed by a check-right.
func TestSchedulePerturbationMatrix(t *testing.T) {
	grain1 := DefaultOptions()
	grain1.Grain = 1
	adaptive := DefaultOptions()
	adaptive.GrainMax = 8
	// CompilePlans defaults on, so the two base configs exercise compiled
	// dispatch (the oracle programs are shape-stable, so their plans seal on
	// iteration 0); the -interp twins ablate the compiler so every program
	// also runs under the pure interpreter with identical perturbation
	// seeds. Bit-identical output across the pairing is the differential
	// guarantee the plan compiler is held to.
	interp := func(o Options) Options {
		o.CompilePlans = false
		return o
	}
	configs := []struct {
		name string
		opts Options
	}{
		{"grain1", grain1},
		{"adaptive", adaptive},
		{"grain1-interp", interp(grain1)},
		{"adaptive-interp", interp(adaptive)},
	}
	programs := perturbPrograms()
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			var promotions, crossSuspends, checkRightWakes int64
			for seed := uint64(1); seed <= 3; seed++ {
				for pi, p := range programs {
					want := make([]uint64, len(p.iters))
					for i := range want {
						want[i] = oracleIteration(p, i)
					}
					opts := cfg.opts
					opts.hooks = newPerturber(seed*0x9e37 + uint64(pi))
					got, st := runFuzzProgram(t, p, opts)
					promotions += st.Promotions
					crossSuspends += st.CrossSuspends
					checkRightWakes += st.LazyEnables + st.ThiefEnables
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("program %d seed %d iteration %d: engine produced %#x, oracle %#x",
								pi, seed, i, got[i], want[i])
						}
					}
				}
			}
			t.Logf("Promotions=%d CrossSuspends=%d LazyEnables+ThiefEnables=%d", promotions, crossSuspends, checkRightWakes)
			if promotions == 0 || crossSuspends == 0 || checkRightWakes == 0 {
				t.Error("suspend path not walked: want all three > 0")
			}
		})
	}
}

// TestPerturbedOverflowStorm forces every root injection onto the
// overflow spill path while submissions race worker wakeups: no pipeline
// may be lost or double-run, and the engine must drain.
func TestPerturbedOverflowStorm(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 3
	opts.hooks = &schedHooks{forceOverflow: func() bool { return true }}
	e := NewEngine(opts)
	defer e.Close()

	const pipes = 80
	var total atomic.Int64
	handles := make([]*Handle, 0, pipes)
	for q := 0; q < pipes; q++ {
		i := 0
		h := e.Submit(nil, func() bool { i++; return i <= 4 }, func(it *Iter) {
			it.Continue(1)
			total.Add(1)
		})
		handles = append(handles, h)
	}
	for _, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("overflow-path pipeline failed: %v", err)
		}
	}
	if got := total.Load(); got != pipes*4 {
		t.Fatalf("ran %d iterations, want %d (lost or duplicated root frames)", got, pipes*4)
	}
	s := e.Stats()
	if s.InjectOverflows != pipes {
		t.Errorf("InjectOverflows = %d, want %d (every inject forced to spill)", s.InjectOverflows, pipes)
	}
	checkEngineDrained(t, e)
}

// TestPerturbedCancelChurn mixes the perturbation hooks with submission
// cancellation across the batched and unbatched tiers: aborted batches
// must drain to the pools like everything else.
func TestPerturbedCancelChurn(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		grain int
	}{{"grain1", 1}, {"adaptive", 0}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.Grain = cfg.grain
			opts.hooks = newPerturber(0xabcdef)
			e := NewEngine(opts)
			defer e.Close()
			var wg sync.WaitGroup
			for q := 0; q < 40; q++ {
				i := 0
				h := e.Submit(nil, func() bool { i++; return i <= 50 }, func(it *Iter) {
					it.Continue(1)
					it.Wait(2)
				})
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					if q%3 == 0 {
						h.Cancel()
					}
					_ = h.Wait()
				}(q)
			}
			wg.Wait()
			checkEngineDrained(t, e)
		})
	}
}

// TestStatsDuringCancelStorm hammers Engine.Stats from concurrent readers
// while a perturbed cancel storm churns frames, pipelines, and admission
// slots underneath. It is the regression test for Stats read tearing: the
// old snapshot loaded each gauge independently with no stability pass, so
// a mid-churn reader could observe, e.g., a live pipeline count from
// before a retirement paired with a frame count from after it. The
// stable-read loop cannot make concurrent gauges exact (they are
// documented best-effort under churn), but every value must be one some
// single atomic held — in particular never negative — and once the storm
// drains the quiescent snapshot must be exact: all live gauges zero.
// Under -race this additionally proves Stats is safe against every
// counter writer in the scheduler.
func TestStatsDuringCancelStorm(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 8
	opts.hooks = newPerturber(0x57a75)
	e := NewEngine(opts)
	defer e.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Stats()
				if s.LiveIterFrames < 0 || s.LiveClosureFrames < 0 || s.LivePipelines < 0 ||
					s.PendingAdmitted < 0 || s.LiveArenaBytes < 0 {
					t.Errorf("torn gauge snapshot: %+v", s)
					return
				}
				if s.LiveWorkers <= 0 {
					t.Errorf("LiveWorkers = %d while the engine is open", s.LiveWorkers)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for q := 0; q < 30; q++ {
		i := 0
		h := e.SubmitWait(nil, func() bool { i++; return i <= 30 }, func(it *Iter) {
			it.Continue(1)
			it.Wait(2)
		})
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if q%3 == 0 {
				h.Cancel()
			}
			_ = h.Wait()
		}(q)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := e.Stats()
	if s.LiveIterFrames != 0 || s.LiveClosureFrames != 0 || s.LivePipelines != 0 ||
		s.PendingAdmitted != 0 || s.LiveArenaBytes != 0 {
		t.Errorf("quiescent gauges not exact: iter=%d closure=%d pipes=%d pending=%d arena=%d",
			s.LiveIterFrames, s.LiveClosureFrames, s.LivePipelines, s.PendingAdmitted, s.LiveArenaBytes)
	}
	checkEngineDrained(t, e)
}
