package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"piper"
	"piper/internal/dedup"
	"piper/internal/lz"
	"piper/internal/workload"
)

// Grain-control ablation: how much of the fixed per-iteration scheduling
// cost batching amortizes away, and what it costs in stealable-work
// availability. The empty-iteration column is the pure scheduling floor
// (the ns/iter the SerialOverheadPerIter benchmarks track); the LZ column
// is a realistic fine-grained variable-cost pipeline (suffix-array
// factorization per 16KiB block, arXiv:0903.4251) where stage bodies
// dwarf the floor and batching must not hurt; the dedup column is the
// coarse regime (Fig 4's SSPS pipeline, ~25 µs of compression per
// iteration), where a batch holds the stealable continuation across
// bodies that each outlast a steal many times over and a fixed grain
// serializes the pipeline.

// GrainAblation renders the Grain(1) / fixed / adaptive comparison.
func GrainAblation(w io.Writer, pmax int, sz SizeSpec) *Table {
	if pmax < 1 {
		pmax = 1
	}
	data := workload.TextStream(1234, sz.DedupBytes, 4096, 0.35)

	tbl := &Table{
		Title: fmt.Sprintf("Grain control ablation (empty-iter floor at P=1; LZ %dKiB blocks and dedup %dKiB at P=%d)",
			lz.DefaultBlockSize>>10, len(data)>>10, pmax),
		Header: []string{"config", "empty ns/iter", "LZ time", "LZ batched/iter", "LZ splits", "floor final G", "dedup time", "dedup batched/iter"},
	}
	type cfg struct {
		name string
		opt  []piper.Option
	}
	cfgs := []cfg{
		{"Grain(1)", []piper.Option{piper.Grain(1)}},
		{"Grain(4)", []piper.Option{piper.Grain(4)}},
		{"Grain(16)", []piper.Option{piper.Grain(16)}},
		{"Grain(64)", []piper.Option{piper.Grain(64)}},
		{"adaptive", []piper.Option{piper.GrainMax(64)}},
	}
	const emptyIters = 200000
	for _, c := range cfgs {
		// Empty-iteration floor at P=1.
		e1 := piper.NewEngine(append([]piper.Option{piper.Workers(1)}, c.opt...)...)
		i := 0
		e1.PipeWhile(func() bool { return i < 1000 }, func(it *piper.Iter) { i++ }) // warm pools
		i = 0
		t0 := time.Now()
		rep := e1.RunPipeline(0, func() bool { return i < emptyIters }, func(it *piper.Iter) { i++ })
		perIter := time.Since(t0).Nanoseconds() / emptyIters
		e1.Close()

		// LZ block pipeline at P=pmax.
		e2 := piper.NewEngine(append([]piper.Option{piper.Workers(pmax)}, c.opt...)...)
		before := e2.Stats()
		el := bestOf(sz.Reps, func() { _ = lz.Compress(e2, 0, data, 0) })
		after := e2.Stats()

		// Dedup at P=pmax, on the same engine: the coarse-body regime.
		var out bytes.Buffer
		ed := bestOf(max(sz.Reps, 3), func() {
			out.Reset()
			_ = dedup.CompressPiper(e2, 0, data, &out)
		})
		afterDedup := e2.Stats()
		e2.Close()

		batchedShare := func(a, b piper.Stats) string {
			return fmt.Sprintf("%.2f", float64(b.BatchedIterations-a.BatchedIterations)/float64(max(b.Iterations-a.Iterations, 1)))
		}
		tbl.AddRow(c.name,
			fmt.Sprintf("%d", perIter),
			el.Round(time.Millisecond).String(),
			batchedShare(before, after),
			fmt.Sprintf("%d", after.BatchSplits-before.BatchSplits),
			fmt.Sprintf("%d", rep.FinalGrain),
			ed.Round(100*time.Microsecond).String(),
			batchedShare(after, afterDedup))
	}
	tbl.Notes = append(tbl.Notes,
		"LZ batched/iter is the fraction of LZ-pipeline iterations whose scheduling cost the batch amortized (deferred-release slots)",
		"floor final G is where the empty-iteration P=1 pipeline's grain settled (the LZ run's grain varies per pipeline)",
		"adaptive claims by measured cost: iterations under ~4 µs ramp to the ceiling, costlier ones run claim 1, so it tracks Grain(64) on the floor and Grain(1) on dedup")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}
