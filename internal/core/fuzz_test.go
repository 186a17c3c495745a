package core

import (
	"math"
	"sync/atomic"
	"testing"
)

// FuzzPipelineSchedule is the differential fuzzer for the scheduler:
// random per-iteration stage/op programs — Wait, Continue, skipped
// stages, fork-join, nested pipelines — execute on the real engine under
// two scheduler configurations, and the results are checked against a
// sequential oracle interpreter plus the paper's serial-stage ordering
// invariant (node (i, j) entered via pipe_wait must not begin before
// iteration i-1 has finished all work in stages ≤ j).

// Fuzz op kinds. Stage deltas and widths are decoded from the op's
// argument byte, always into small strictly-increasing stages.
const (
	fopWait byte = iota
	fopContinue
	fopFork
	fopNested
	fopCompute
	fopKinds
)

type fuzzOp struct {
	kind byte
	arg  byte
}

type fuzzProgram struct {
	workers  int
	throttle int
	iters    [][]fuzzOp
}

// byteFeed deterministically serves fuzz bytes, yielding zeros once the
// input is exhausted so every prefix decodes to a valid program.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// decodeProgram maps arbitrary bytes onto a well-formed pipeline program:
// stage arguments strictly increase by construction, and nested pipelines
// are never started from stage 0 (decoded as compute instead, mirroring
// the runtime's prohibition).
func decodeProgram(data []byte) fuzzProgram {
	b := &byteFeed{data: data}
	p := fuzzProgram{
		workers:  1 + int(b.next()%4),
		throttle: 1 + int(b.next()%8),
	}
	n := int(b.next() % 25)
	p.iters = make([][]fuzzOp, n)
	for i := range p.iters {
		nOps := int(b.next() % 6)
		ops := make([]fuzzOp, 0, nOps)
		inStage0 := true
		for o := 0; o < nOps; o++ {
			kind := b.next() % fopKinds
			arg := b.next()
			if kind == fopNested && inStage0 {
				kind = fopCompute
			}
			if kind == fopWait || kind == fopContinue {
				inStage0 = false
			}
			ops = append(ops, fuzzOp{kind: kind, arg: arg})
		}
		p.iters[i] = ops
	}
	return p
}

// fuzzChild is the deterministic contribution of fork-join child (or
// nested iteration) k of op o in iteration i. Commutative accumulation
// (addition) makes the value independent of execution order, so any
// lost, duplicated, or cross-wired task shows up as a value mismatch.
func fuzzChild(i, o, k int) uint64 {
	z := uint64(i+1)*0x9e3779b97f4a7c15 + uint64(o+1)*0xbf58476d1ce4e5b9 + uint64(k+1)
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 27)
}

// oracleIteration interprets iteration i of the program sequentially,
// producing the value the parallel execution must reproduce bit-for-bit.
func oracleIteration(p fuzzProgram, i int) uint64 {
	acc := uint64(i)*0x9e3779b97f4a7c15 + 1
	stage := int64(0)
	for o, op := range p.iters[i] {
		switch op.kind {
		case fopWait, fopContinue:
			stage += 1 + int64(op.arg%3)
			acc = acc*31 + uint64(stage)
		case fopFork:
			width := 1 + int(op.arg%3)
			for k := 0; k < width; k++ {
				acc += fuzzChild(i, o, k)
			}
		case fopNested:
			m := 1 + int(op.arg%3)
			for r := 0; r < m; r++ {
				acc += fuzzChild(i, o, 100+r)
			}
		case fopCompute:
			acc = acc*1099511628211 + uint64(op.arg)
		}
	}
	return acc
}

// runFuzzProgram executes the program on a real engine and checks the
// serial-stage ordering invariant on the fly. It returns the
// per-iteration values for the differential comparison and the engine's
// final counters.
func runFuzzProgram(t *testing.T, p fuzzProgram, opts Options) ([]uint64, Stats) {
	t.Helper()
	opts.Workers = p.workers
	e := NewEngine(opts)
	defer e.Close()

	n := len(p.iters)
	out := make([]uint64, n)
	// progress[i] is iteration i's declared progress: stage j is stored
	// just before the Wait/Continue that leaves the work of stages < j
	// behind, and MaxInt64 when the body finishes. Published before the
	// runtime's own stage counter advances, so when the scheduler releases
	// a cross edge into (i, j), progress[i-1] > j must already hold.
	progress := make([]atomic.Int64, n+1)
	var orderViolations atomic.Int64

	i := 0
	rep := e.RunPipeline(p.throttle, func() bool { i++; return i <= n }, func(it *Iter) {
		idx := int(it.Index())
		ops := p.iters[idx]
		acc := uint64(idx)*0x9e3779b97f4a7c15 + 1
		stage := int64(0)
		for o, op := range ops {
			switch op.kind {
			case fopWait, fopContinue:
				j := stage + 1 + int64(op.arg%3)
				progress[idx].Store(j)
				if op.kind == fopWait {
					it.Wait(j)
					// The cross edge just resolved: iteration idx-1 must
					// have declared progress beyond j.
					if idx > 0 && progress[idx-1].Load() <= j {
						orderViolations.Add(1)
					}
				} else {
					it.Continue(j)
				}
				stage = j
				acc = acc*31 + uint64(stage)
			case fopFork:
				width := 1 + int(op.arg%3)
				var sum atomic.Uint64
				for k := 0; k < width; k++ {
					k := k
					it.Go(func() { sum.Add(fuzzChild(idx, o, k)) })
				}
				it.Sync()
				acc += sum.Load()
			case fopNested:
				m := 1 + int(op.arg%3)
				var sum atomic.Uint64
				r := 0
				it.PipeWhile(func() bool { r++; return r <= m }, func(nit *Iter) {
					rr := r - 1 // stage 0: capture before the next cond
					nit.Continue(1)
					sum.Add(fuzzChild(idx, o, 100+rr))
				})
				acc += sum.Load()
			case fopCompute:
				acc = acc*1099511628211 + uint64(op.arg)
			}
		}
		out[idx] = acc
		progress[idx].Store(math.MaxInt64)
	})

	if v := orderViolations.Load(); v != 0 {
		t.Errorf("%d serial-stage ordering violations (a pipe_wait resolved before the predecessor's work was done)", v)
	}
	if rep.Iterations != int64(n) {
		t.Errorf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.MaxLiveIterations > int64(p.throttle) {
		t.Errorf("MaxLiveIterations = %d exceeds throttle K=%d", rep.MaxLiveIterations, p.throttle)
	}
	checkEngineDrained(t, e)
	return out, e.Stats()
}

func FuzzPipelineSchedule(f *testing.F) {
	// Seeds covering each op kind, skipped stages, nesting, and the
	// degenerate empty pipeline.
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 2, fopWait, 1, fopFork, 2, 1, fopContinue, 0})
	f.Add([]byte{1, 0, 8, 3, fopWait, 2, fopCompute, 7, fopWait, 0})
	f.Add([]byte{3, 7, 12, 2, fopContinue, 0, fopNested, 2, 4, fopWait, 1, fopFork, 0, fopWait, 2, fopCompute, 9})
	f.Add([]byte{0, 1, 24, 1, fopWait, 2, 1, fopContinue, 2, 2, fopWait, 0, fopWait, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)

		want := make([]uint64, len(p.iters))
		for i := range want {
			want[i] = oracleIteration(p, i)
		}

		// Differential runs across the scheduler configuration matrix: the
		// paper-faithful default (adaptive grain), the paper's own switches
		// all ablated (eager enabling, no tail swap, no dependency
		// folding), and the batching extremes — unbatched Grain(1), a
		// fixed G=4 claim, and a tight adaptive ceiling on a clock seeded
		// from the input, so the claim grows and drops within small
		// programs and the fuzzer's mutations move where. The promotion,
		// recycling, and batch split/defer paths must agree with the
		// oracle under every combination.
		ablated := DefaultOptions()
		ablated.EagerEnabling = true
		ablated.TailSwap = false
		ablated.DependencyFolding = false
		grain1 := DefaultOptions()
		grain1.Grain = 1
		grain4 := DefaultOptions()
		grain4.Grain = 4
		adaptiveTight := DefaultOptions()
		adaptiveTight.GrainMax = 4
		clockSeed := uint64(len(data))
		for _, b := range data {
			clockSeed = clockSeed*1099511628211 ^ uint64(b)
		}
		adaptiveTight.hooks = &schedHooks{clock: seededClock(clockSeed)}
		// CompilePlans defaults on, so every config above except "ablated"
		// (which disables dependency folding, a plan prerequisite) runs
		// compiled dispatch; the interp twins ablate the compiler so the same
		// programs also execute under the pure interpreter. Shape-unstable
		// programs (per-iteration op lists differ) additionally exercise the
		// deopt path inside the compiled configs themselves.
		interpDefault := DefaultOptions()
		interpDefault.CompilePlans = false
		interpGrain1 := grain1
		interpGrain1.CompilePlans = false
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"default", DefaultOptions()},
			{"ablated", ablated},
			{"grain1", grain1},
			{"grain4", grain4},
			{"adaptive-g4", adaptiveTight},
			{"interp-default", interpDefault},
			{"interp-grain1", interpGrain1},
		} {
			got, _ := runFuzzProgram(t, p, cfg.opts)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iteration %d (%s): engine produced %#x, oracle %#x (program %+v)",
						i, cfg.name, got[i], want[i], p.iters[i])
				}
			}
		}
	})
}
