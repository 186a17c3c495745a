// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 10) and the throttling experiments (Section 11),
// from the declarations cmd/piperbench prints as tables (internal/bench)
// at its Small size. Each benchmark iteration executes one full workload
// run; compare sub-benchmarks to read the tables (e.g. Fig6Ferret/CilkP-P2
// vs Fig6Ferret/Serial gives the speedup column).
package piper_test

import (
	"fmt"
	"testing"

	"piper"
	"piper/internal/bench"
	"piper/internal/dag"
)

var (
	benchPs   = []int{1, 2, 4} // worker counts of the scaling figures
	benchSize = bench.Small()
)

const benchP = 2 // workers of the single-P experiments

// loop times b.N runs of run, then calls stop.
func loop(b *testing.B, run, stop func()) {
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// scaling runs a Fig 6–8 declaration: its serial reference, then every
// system at every worker count.
func scaling(b *testing.B, s bench.Scaling) {
	b.Run("Serial", func(b *testing.B) {
		b.SetBytes(s.Bytes)
		loop(b, s.Serial, func() {})
	})
	for _, p := range benchPs {
		for _, sys := range s.Systems {
			b.Run(fmt.Sprintf("%s-P%d", sys.Name, p), func(b *testing.B) {
				b.SetBytes(s.Bytes)
				run, stop := sys.Start(p, s.K*p)
				loop(b, run, stop)
			})
		}
	}
}

func BenchmarkFig6Ferret(b *testing.B) { scaling(b, bench.Ferret(benchSize)) }
func BenchmarkFig7Dedup(b *testing.B)  { scaling(b, bench.Dedup(benchSize)) }
func BenchmarkFig8X264(b *testing.B)   { scaling(b, bench.X264(benchSize)) }

func BenchmarkFig9PipeFib(b *testing.B) {
	n := benchSize.PipeFibN
	for _, f := range bench.PipeFibs {
		b.Run("Serial"+f.Name, func(b *testing.B) {
			loop(b, func() { f.Serial(f.Scale * n) }, func() {})
		})
	}
	for _, f := range bench.PipeFibs {
		for _, fold := range bench.Folding {
			for _, p := range benchPs {
				b.Run(fmt.Sprintf("%s-%s-P%d", f.Name, fold.Name, p), func(b *testing.B) {
					eng, run := f.Start(p, n, piper.DependencyFolding(fold.On))
					loop(b, run, eng.Close)
				})
			}
		}
	}
}

// spin replays model at benchP workers with throttling limit k.
func spin(b *testing.B, k int, model *dag.Pipeline) {
	eng := piper.NewEngine(piper.Workers(benchP))
	loop(b, func() { bench.SpinPipeline(eng, k, model) }, eng.Close)
}

func BenchmarkThm12Uniform(b *testing.B) {
	model := bench.Uniform(benchSize)
	for _, a := range bench.UniformFactors {
		b.Run(fmt.Sprintf("K=%dP", a), func(b *testing.B) { spin(b, a*benchP, model) })
	}
}

func BenchmarkFig10Pathological(b *testing.B) {
	model := bench.Pathological(benchSize)
	for _, k := range bench.PathologicalKs(model, benchP) {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { spin(b, k, model) })
	}
}

func BenchmarkAblations(b *testing.B) {
	for _, c := range bench.Ablated {
		b.Run(c.Name, func(b *testing.B) {
			eng, run := c.Start(benchP, benchSize)
			loop(b, run, eng.Close)
		})
	}
}

// --- Scheduler microbenchmarks ----------------------------------------------

// BenchmarkSerialOverhead measures the per-iteration cost of an empty
// pipeline on one worker — the "low serial overhead" claim of Section 10.
func BenchmarkSerialOverhead(b *testing.B) {
	eng := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	b.ResetTimer()
	i := 0
	n := b.N
	eng.PipeWhile(func() bool { return i < n }, func(it *piper.Iter) {
		i++
	})
}

// BenchmarkStageTransitions measures Wait on an always-satisfied cross
// edge (the dependency-folding fast path).
func BenchmarkStageTransitions(b *testing.B) {
	eng := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	b.ResetTimer()
	i := 0
	eng.PipeWhile(func() bool { return i < 1 }, func(it *piper.Iter) {
		i++
		for j := int64(1); j <= int64(b.N); j++ {
			it.Wait(j)
		}
	})
}

// BenchmarkForkJoinFor measures Iter.For dispatch.
func BenchmarkForkJoinFor(b *testing.B) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	var sink int64
	b.ResetTimer()
	i := 0
	eng.PipeWhile(func() bool { return i < 1 }, func(it *piper.Iter) {
		i++
		it.Continue(1)
		it.For(b.N, 256, func(j int) { sink += int64(j) })
	})
	_ = sink
}
