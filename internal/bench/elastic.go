package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"piper"
	"piper/internal/workload"
)

// Elasticity experiment: the paper's bounds hold for a fixed worker count
// P, but a serving deployment faces bursty traffic where a static P either
// wastes cores in the gaps or queues without bound at the peaks. This
// experiment drives the same bursty multi-tenant workload through a fixed
// pool and an elastic one and reports what elasticity buys (cores
// returned during gaps, bounded queues at peaks) and what it costs
// (scale-up latency on the leading edge of a burst).

// elasticBurst pushes waves of short SPS pipelines through eng, with
// quiet gaps between waves, and returns the total wall time.
func elasticBurst(eng *piper.Engine, waves, perWave int, spin int64, gap time.Duration) time.Duration {
	t0 := time.Now()
	for wv := 0; wv < waves; wv++ {
		handles := make([]*piper.Handle, 0, perWave)
		for q := 0; q < perWave; q++ {
			i := 0
			var sink atomic.Uint64
			h := eng.Submit(nil, func() bool { i++; return i <= 6 }, func(it *piper.Iter) {
				sink.Add(workload.Spin(spin))
				it.Continue(1)
				sink.Add(workload.Spin(spin))
				it.Wait(2)
				sink.Add(workload.Spin(spin / 4))
			})
			handles = append(handles, h)
		}
		for _, h := range handles {
			_ = h.Wait()
		}
		if wv < waves-1 {
			time.Sleep(gap)
		}
	}
	return time.Since(t0)
}

// MeasureScaleUp returns the latency from the first submission of a
// saturating burst on a MinWorkers=1 engine until the live-worker gauge
// first reaches maxW — the elastic pool's reaction time, the price paid on
// a burst's leading edge.
func MeasureScaleUp(maxW int, spin int64) time.Duration {
	eng := piper.NewEngine(
		piper.Workers(1), piper.MinWorkers(1), piper.MaxWorkers(maxW),
		// No retires during the measurement window.
		piper.RetireAfter(time.Hour),
	)
	defer eng.Close()
	handles := make([]*piper.Handle, 0, 4*maxW)
	t0 := time.Now()
	for q := 0; q < 4*maxW; q++ {
		i := 0
		var sink atomic.Uint64
		h := eng.Submit(nil, func() bool { i++; return i <= 8 }, func(it *piper.Iter) {
			sink.Add(workload.Spin(spin))
			it.Continue(1)
			sink.Add(workload.Spin(spin))
		})
		handles = append(handles, h)
	}
	var lat time.Duration
	for {
		if eng.Stats().LiveWorkers >= int64(maxW) {
			lat = time.Since(t0)
			break
		}
		if time.Since(t0) > 5*time.Second {
			lat = time.Since(t0) // stalled; report the timeout honestly
			break
		}
		runtime.Gosched()
	}
	for _, h := range handles {
		_ = h.Wait()
	}
	return lat
}

// Elasticity renders the fixed-vs-elastic comparison table.
func Elasticity(w io.Writer, pmax int, sz SizeSpec) *Table {
	if pmax < 2 {
		pmax = 2
	}
	waves, perWave := 3, 40*sz.Reps
	spin := int64(1500)
	gap := 25 * time.Millisecond

	tbl := &Table{
		Title:  "Elastic worker pool vs fixed P (bursty serving workload)",
		Header: []string{"config", "time", "spawns", "retires", "floor"},
	}
	type cfg struct {
		name string
		opts []piper.Option
	}
	cfgs := []cfg{
		{fmt.Sprintf("fixed P=%d", pmax), []piper.Option{piper.Workers(pmax)}},
		{fmt.Sprintf("elastic 1..%d", pmax), []piper.Option{
			piper.Workers(1), piper.MinWorkers(1), piper.MaxWorkers(pmax),
			piper.RetireAfter(2 * time.Millisecond),
		}},
	}
	for _, c := range cfgs {
		eng := piper.NewEngine(c.opts...)
		el := elasticBurst(eng, waves, perWave, spin, gap)
		s := eng.Stats()
		eng.Close()
		tbl.AddRow(c.name, el.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", s.WorkerSpawns), fmt.Sprintf("%d", s.WorkerRetires),
			fmt.Sprintf("%d", s.LiveWorkers))
	}
	lat := MeasureScaleUp(pmax, spin)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("scale-up latency 1→%d workers under a saturating burst: %v", pmax, lat.Round(time.Microsecond)),
		"the elastic pool pays its reaction time on a burst's leading edge and returns cores during the gaps")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}
