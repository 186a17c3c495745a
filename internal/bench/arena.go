package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"piper"
	"piper/internal/core"
	"piper/internal/dedup"
	"piper/internal/lz"
	"piper/internal/workload"
)

// Arena data-plane ablation: what buffer recycling buys on the two
// stream workloads whose payloads flow through the arena (dedup's
// per-chunk deflate buffers; StreamCompress's chunk, index and output
// regions and its per-block suffix-sort scratch and factor lists). The disabled configuration (core.Options.ArenaBuffers false) keeps
// the identical ownership API — same retain/release hand-offs, same
// gauges — but every Get allocates and every final Release goes to the
// GC, so the delta isolates recycling itself from the refactoring.

// ArenaAblation renders the arena on/off comparison.
func ArenaAblation(pmax int, sz SizeSpec) *Table {
	pmax = max(pmax, 1)
	data := workload.TextStream(1234, sz.DedupBytes, 4096, 0.35)

	tbl := &Table{
		Title: fmt.Sprintf("Arena data-plane ablation (dedup + LZ on %d MiB at P=%d, K=4P)",
			sz.DedupBytes>>20, pmax),
		Header: []string{"config", "workload", "time", "allocs/op", "alloc MB/op", "arena gets", "misses", "recycled MB/op"},
	}

	type work struct {
		name string
		body func(e *piper.Engine)
	}
	works := []work{
		{"dedup", func(e *piper.Engine) { _ = dedup.CompressPiper(e, 4*pmax, data, io.Discard) }},
		{"lz", func(e *piper.Engine) {
			_, _ = lz.StreamCompress(e, io.Discard, bytes.NewReader(data), lz.StreamOptions{Mode: lz.ModeDense})
		}},
	}
	for _, enabled := range []bool{true, false} {
		name := "arena on"
		if !enabled {
			name = "arena off"
		}
		for _, wk := range works {
			e := piper.NewEngine(piper.Workers(pmax), func(o *core.Options) { o.ArenaBuffers = enabled })
			wk.body(e) // warm pools, workers, and size classes

			// Allocation counters bracket the timed reps; per-op numbers
			// divide out the rep count.
			reps := max(sz.Reps, 1)
			// The explicit GC (for a clean Mallocs bracket) pushes the
			// warmed regions into the sync.Pool victim caches, one natural
			// GC away from being freed — a collection triggered by the
			// measured run's own allocations would then turn steady-state
			// checkouts into misses. Re-warming after the GC pulls the
			// inventory back into the primary caches, so it takes two
			// mid-measurement collections to perturb the miss column.
			var m0, m1 runtime.MemStats
			runtime.GC()
			wk.body(e)
			before := e.Stats()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				wk.body(e)
			}
			el := time.Since(t0) / time.Duration(reps)
			runtime.ReadMemStats(&m1)
			after := e.Stats()
			e.Close()

			d := float64(reps)
			tbl.AddRow(name, wk.name,
				el.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", float64(m1.Mallocs-m0.Mallocs)/d),
				fmt.Sprintf("%.1f", float64(m1.TotalAlloc-m0.TotalAlloc)/d/(1<<20)),
				fmt.Sprintf("%.0f", float64(after.ArenaGets-before.ArenaGets)/d),
				fmt.Sprintf("%.0f", float64(after.ArenaMisses-before.ArenaMisses)/d),
				fmt.Sprintf("%.1f", float64(after.ArenaBytesRecycled-before.ArenaBytesRecycled)/d/(1<<20)))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"arena off (core.Options.ArenaBuffers false) keeps the Ref ownership API and gauges but never recycles: every Get allocates, every final Release goes to the GC",
		"allocs/op counts every heap allocation during one full pipeline run (runtime.MemStats.Mallocs delta); both workloads write to io.Discard",
		"misses are arena checkouts that allocated fresh storage; the warm-up run outside the measurement makes steady-state misses ≈ 0 with the arena on")
	return tbl
}
