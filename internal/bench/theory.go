package bench

import (
	"fmt"
	"io"
	"time"

	"piper"
	"piper/internal/dag"
	"piper/internal/pipefib"
	"piper/internal/workload"
)

// Fig9PipeFib reproduces the dependency-folding table: pipe-fib and
// pipe-fib-256, each with and without dependency folding, reporting TS,
// T1, TP, serial overhead (T1/TS), speedup (TS/TP), and scalability
// (T1/TP). pmax plays the role of the paper's 16 workers.
func Fig9PipeFib(w io.Writer, pmax int, sz SizeSpec) *Table {
	n := sz.PipeFibN
	// The coarsened program needs a proportionally larger index so each
	// 256-bit stage carries real work, mirroring the paper's fixed-input
	// comparison (their n makes both variants run ~20s).
	nCoarse := 16 * n
	tsFine := bestOf(sz.Reps, func() { pipefib.SerialFine(n) })
	tsCoarse := bestOf(sz.Reps, func() { pipefib.SerialCoarse(nCoarse) })

	type variant struct {
		name    string
		ts      time.Duration
		folding bool
		coarse  bool
	}
	variants := []variant{
		{"pipe-fib      no-fold", tsFine, false, false},
		{"pipe-fib-256  no-fold", tsCoarse, false, true},
		{"pipe-fib      fold", tsFine, true, false},
		{"pipe-fib-256  fold", tsCoarse, true, true},
	}
	tbl := &Table{
		Title: fmt.Sprintf("Figure 9: pipe-fib dependency folding (n=%d, n256=%d, P=%d)",
			n, nCoarse, pmax),
		Header: []string{"program", "fold", "TS", "T1", "TP", "overhead", "speedup", "scalability", "cross-checks"},
	}
	for _, v := range variants {
		var checks int64
		run := func(p int) time.Duration {
			eng := piper.NewEngine(piper.Workers(p), piper.DependencyFolding(v.folding))
			defer eng.Close()
			d := bestOf(sz.Reps, func() {
				if v.coarse {
					pipefib.Coarse(eng, 4*p, nCoarse)
				} else {
					pipefib.Fine(eng, 4*p, n)
				}
			})
			if p == pmax {
				checks = eng.Stats().CrossChecks
			}
			return d
		}
		t1 := run(1)
		tp := run(pmax)
		fold := "no"
		if v.folding {
			fold = "yes"
		}
		tbl.AddRow(v.name, fold, secs(v.ts), secs(t1), secs(tp),
			ratio(t1, v.ts), ratio(v.ts, tp), ratio(t1, tp),
			fmt.Sprint(checks))
	}
	tbl.Notes = append(tbl.Notes,
		"pipe-fib-256 runs 16× the index so a 256-bit stage carries comparable work",
		"cross-checks counts shared stage-counter reads at P workers (folding's target)")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}

// spinPipeline executes an abstract dag.Pipeline on the scheduler: node
// (i,j) spins for its weight in microseconds, stages with cross edges use
// Wait and the rest Continue. It returns the pipeline report (for space
// accounting).
func spinPipeline(eng *piper.Engine, k int, model *dag.Pipeline) piper.PipelineReport {
	i := 0
	iters := model.Iters
	return eng.RunPipeline(k, func() bool { return i < len(iters) }, func(it *piper.Iter) {
		row := iters[i]
		i++
		workload.SpinMicros(row[0].Weight)
		for j := 1; j < len(row); j++ {
			nd := row[j]
			if nd.Cross {
				//piper:allow-dynamic-stage replaying a recorded stage trace; the recorder emitted it monotone
				it.Wait(nd.Stage)
			} else {
				//piper:allow-dynamic-stage replaying a recorded stage trace; the recorder emitted it monotone
				it.Continue(nd.Stage)
			}
			workload.SpinMicros(nd.Weight)
		}
	})
}

// Thm12Uniform measures the price of throttling on a uniform pipeline:
// for K = aP with growing a, TP should approach the unthrottled ideal,
// matching TP <= (1+c/a)T1/P + cT∞.
func Thm12Uniform(w io.Writer, p int, sz SizeSpec) *Table {
	const stages, nodeMicros = 4, 40
	n := 800
	if sz.Reps == 1 {
		n = 400
	}
	reps := sz.Reps + 1 // noise matters at this scale
	model := dag.Uniform(n, stages, nodeMicros)
	t1 := float64(model.Work())

	tbl := &Table{
		Title: fmt.Sprintf("Theorem 12: uniform pipeline (n=%d, s=%d, %dµs nodes, P=%d)",
			n, stages, nodeMicros, p),
		Header: []string{"K", "a=K/P", "TP", "speedup", "model-speedup"},
	}
	ideal := bestOf(reps, func() {
		eng := piper.NewEngine(piper.Workers(1))
		defer eng.Close()
		spinPipeline(eng, n+1, model)
	})
	for _, a := range []int{1, 2, 4, 8} {
		k := a * p
		eng := piper.NewEngine(piper.Workers(p))
		tp := bestOf(reps, func() { spinPipeline(eng, k, model) })
		eng.Close()
		tbl.AddRow(fmt.Sprint(k), fmt.Sprint(a), secs(tp),
			ratio(ideal, tp),
			f2(t1/model.PredictTime(p, k)))
	}
	tbl.Notes = append(tbl.Notes,
		"throttling a uniform pipeline costs at most a (1+c/a) factor (Theorem 12)")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}

// Fig10Pathological runs the nonuniform pipeline of Figure 10 under
// several throttling windows, reporting speedup and the peak number of
// live iterations (the space PIPER pays). Small windows cap the speedup
// near 3 regardless of P; achieving more requires Ω(T1^{1/3}) space
// (Theorem 13).
func Fig10Pathological(w io.Writer, p int, sz SizeSpec) *Table {
	// Build the clustered dag with weights in spin-microseconds.
	target := int64(1) << 17 // T1 in µs ≈ 0.13s of spin work
	if sz.Reps > 1 {
		target = 1 << 19
	}
	model := dag.PathologicalThm13(target)
	cbrt := 1
	for int64(cbrt*cbrt*cbrt) < model.Work() {
		cbrt++
	}

	serial := bestOf(sz.Reps, func() {
		eng := piper.NewEngine(piper.Workers(1))
		defer eng.Close()
		spinPipeline(eng, len(model.Iters)+1, model)
	})

	tbl := &Table{
		Title: fmt.Sprintf("Figure 10 / Theorem 13: pathological pipeline (T1≈%dµs, %d iterations, P=%d)",
			model.Work(), len(model.Iters), p),
		Header: []string{"K", "TP", "speedup", "max-live-iters", "model-speedup", "model-P16"},
	}
	for _, k := range []int{2, 4 * p, cbrt + 2} {
		eng := piper.NewEngine(piper.Workers(p))
		var rep piper.PipelineReport
		tp := bestOf(sz.Reps, func() { rep = spinPipeline(eng, k, model) })
		eng.Close()
		tbl.AddRow(fmt.Sprint(k), secs(tp), ratio(serial, tp),
			fmt.Sprint(rep.MaxLiveIterations),
			f2(float64(model.Work())/model.PredictTime(p, k)),
			f2(float64(model.Work())/model.PredictTime(16, k)))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("T1^(1/3) = %d: speedup beyond ~3 requires a window (space) of that order", cbrt),
		"model-P16 shows the theorem's contrast at the paper's core count")
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}

// Ablations measures the Section 9 runtime optimizations individually on
// pipe-fib (fine-grained serial stages stress them most).
func Ablations(w io.Writer, p int, sz SizeSpec) *Table {
	n := sz.PipeFibN / 2
	type cfg struct {
		name string
		opts []piper.Option
	}
	cfgs := []cfg{
		{"baseline (all on)", nil},
		{"no dependency folding", []piper.Option{piper.DependencyFolding(false)}},
		{"eager enabling", []piper.Option{piper.LazyEnabling(false)}},
		{"no tail swap", []piper.Option{piper.TailSwap(false)}},
	}
	tbl := &Table{
		Title:  fmt.Sprintf("Section 9 ablations on pipe-fib (n=%d, P=%d)", n, p),
		Header: []string{"config", "TP", "slowdown", "steals", "cross-checks", "fold-hits", "tail-swaps"},
	}
	var base time.Duration
	for i, c := range cfgs {
		opts := append([]piper.Option{piper.Workers(p)}, c.opts...)
		eng := piper.NewEngine(opts...)
		tp := bestOf(sz.Reps, func() { pipefib.Fine(eng, 4*p, n) })
		st := eng.Stats()
		eng.Close()
		if i == 0 {
			base = tp
		}
		tbl.AddRow(c.name, secs(tp), ratio(tp, base),
			fmt.Sprint(st.Steals), fmt.Sprint(st.CrossChecks),
			fmt.Sprint(st.FoldHits), fmt.Sprint(st.TailSwaps))
	}
	if w != nil {
		tbl.Fprint(w)
	}
	return tbl
}
