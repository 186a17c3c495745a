package bench

import (
	"fmt"
	"math/big"
	"time"

	"piper"
	"piper/internal/dag"
	"piper/internal/pipefib"
	"piper/internal/workload"
)

// PipeFib is one Figure 9 program: pipe-fib, or pipe-fib-256 run at
// Scale times the index so a 256-bit stage carries comparable work
// (mirroring the paper's fixed-input comparison: their n makes both
// variants run ~20s).
type PipeFib struct {
	Name, Label string
	Scale       int
	Serial      func(n int) *big.Int
	Run         func(eng *piper.Engine, k, n int) *big.Int
}

// PipeFibs are Figure 9's programs.
var PipeFibs = []PipeFib{
	{"Fine", "pipe-fib", 1, pipefib.SerialFine, pipefib.Fine},
	{"Coarse", "pipe-fib-256", 16, pipefib.SerialCoarse, pipefib.Coarse},
}

// Folding is Figure 9's other axis: each program runs with dependency
// folding off, then on. Col is the table's fold column.
var Folding = []struct {
	Name, Label, Col string
	On               bool
}{{"NoFold", "no-fold", "no", false}, {"Fold", "fold", "yes", true}}

// Start returns f's run at index n on a fresh engine of p workers with
// K = 4P and the given options; the caller closes the engine.
func (f PipeFib) Start(p, n int, opts ...piper.Option) (*piper.Engine, func()) {
	eng := piper.NewEngine(append([]piper.Option{piper.Workers(p)}, opts...)...)
	return eng, func() { f.Run(eng, 4*p, f.Scale*n) }
}

// Fig9PipeFib reproduces the dependency-folding table: pipe-fib and
// pipe-fib-256, each with and without dependency folding, reporting TS,
// T1, TP, serial overhead (T1/TS), speedup (TS/TP), and scalability
// (T1/TP). pmax plays the role of the paper's 16 workers.
func Fig9PipeFib(pmax int, sz SizeSpec) *Table {
	n := sz.PipeFibN
	ts := make([]time.Duration, len(PipeFibs))
	for i, f := range PipeFibs {
		ts[i] = bestOf(sz.Reps, func() { f.Serial(f.Scale * n) })
	}
	tbl := &Table{
		Title: fmt.Sprintf("Figure 9: pipe-fib dependency folding (n=%d, n256=%d, P=%d)",
			n, PipeFibs[1].Scale*n, pmax),
		Header: []string{"program", "fold", "TS", "T1", "TP", "overhead", "speedup", "scalability", "cross-checks"},
	}
	for _, fold := range Folding {
		for i, f := range PipeFibs {
			var checks int64
			timeAt := func(p int) time.Duration {
				eng, run := f.Start(p, n, piper.DependencyFolding(fold.On))
				defer eng.Close()
				d := bestOf(sz.Reps, run)
				checks = eng.Stats().CrossChecks
				return d
			}
			t1 := timeAt(1)
			tp := timeAt(pmax)
			tbl.AddRow(fmt.Sprintf("%-14s%s", f.Label, fold.Label), fold.Col, secs(ts[i]), secs(t1), secs(tp),
				ratio(t1, ts[i]), ratio(ts[i], tp), ratio(t1, tp), fmt.Sprint(checks))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"pipe-fib-256 runs 16× the index so a 256-bit stage carries comparable work",
		"cross-checks counts shared stage-counter reads at P workers (folding's target)")
	return tbl
}

// SpinPipeline executes an abstract dag.Pipeline on the scheduler: node
// (i,j) spins for its weight in microseconds, stages with cross edges use
// Wait and the rest Continue. It returns the pipeline report (for space
// accounting).
func SpinPipeline(eng *piper.Engine, k int, model *dag.Pipeline) piper.PipelineReport {
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

// spinTime times SpinPipeline of model on an engine of p workers with
// throttling limit k, best of reps, and returns the last run's report.
func spinTime(p, k, reps int, model *dag.Pipeline) (time.Duration, piper.PipelineReport) {
	eng := piper.NewEngine(piper.Workers(p))
	defer eng.Close()
	var rep piper.PipelineReport
	d := bestOf(reps, func() { rep = SpinPipeline(eng, k, model) })
	return d, rep
}

// Uniform is Theorem 12's pipeline: s=4 stages of 40µs nodes, 400
// iterations at one rep and 800 beyond.
func Uniform(sz SizeSpec) *dag.Pipeline {
	if sz.Reps == 1 {
		return dag.Uniform(400, 4, 40)
	}
	return dag.Uniform(800, 4, 40)
}

// UniformFactors are Theorem 12's throttling windows K = aP.
var UniformFactors = []int{1, 2, 4, 8}

// Thm12Uniform measures the price of throttling on a uniform pipeline:
// for K = aP with growing a, TP should approach the unthrottled ideal,
// matching TP <= (1+c/a)T1/P + cT∞.
func Thm12Uniform(p int, sz SizeSpec) *Table {
	reps := sz.Reps + 1 // noise matters at this scale
	model := Uniform(sz)
	n, row := len(model.Iters), model.Iters[0]
	t1 := float64(model.Work())

	tbl := &Table{
		Title: fmt.Sprintf("Theorem 12: uniform pipeline (n=%d, s=%d, %dµs nodes, P=%d)",
			n, len(row), row[0].Weight, p),
		Header: []string{"K", "a=K/P", "TP", "speedup", "model-speedup"},
	}
	ideal, _ := spinTime(1, n+1, reps, model)
	for _, a := range UniformFactors {
		k := a * p
		tp, _ := spinTime(p, k, reps, model)
		tbl.AddRow(fmt.Sprint(k), fmt.Sprint(a), secs(tp),
			ratio(ideal, tp),
			f2(t1/model.PredictTime(p, k)))
	}
	tbl.Notes = append(tbl.Notes,
		"throttling a uniform pipeline costs at most a (1+c/a) factor (Theorem 12)")
	return tbl
}

// Pathological is Figure 10's nonuniform pipeline, with weights in
// spin-microseconds: T1 ≈ 0.13s of spin work at one rep, 0.5s beyond.
func Pathological(sz SizeSpec) *dag.Pipeline {
	if sz.Reps > 1 {
		return dag.PathologicalThm13(1 << 19)
	}
	return dag.PathologicalThm13(1 << 17)
}

// PathologicalKs are Figure 10's throttling windows at p workers: 2, 4P,
// and T1^(1/3)+2, the order of window (space) a speedup beyond ~3 needs.
func PathologicalKs(model *dag.Pipeline, p int) []int {
	return []int{2, 4 * p, cbrt(model.Work()) + 2}
}

// cbrt is the least c with c³ ≥ v.
func cbrt(v int64) int {
	c := 1
	for int64(c*c*c) < v {
		c++
	}
	return c
}

// Fig10Pathological runs the nonuniform pipeline of Figure 10 under
// several throttling windows, reporting speedup and the peak number of
// live iterations (the space PIPER pays). Small windows cap the speedup
// near 3 regardless of P; achieving more requires Ω(T1^{1/3}) space
// (Theorem 13).
func Fig10Pathological(p int, sz SizeSpec) *Table {
	model := Pathological(sz)
	serial, _ := spinTime(1, len(model.Iters)+1, sz.Reps, model)

	tbl := &Table{
		Title: fmt.Sprintf("Figure 10 / Theorem 13: pathological pipeline (T1≈%dµs, %d iterations, P=%d)",
			model.Work(), len(model.Iters), p),
		Header: []string{"K", "TP", "speedup", "max-live-iters", "model-speedup", "model-P16"},
	}
	for _, k := range PathologicalKs(model, p) {
		tp, rep := spinTime(p, k, sz.Reps, model)
		tbl.AddRow(fmt.Sprint(k), secs(tp), ratio(serial, tp),
			fmt.Sprint(rep.MaxLiveIterations),
			f2(float64(model.Work())/model.PredictTime(p, k)),
			f2(float64(model.Work())/model.PredictTime(16, k)))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("T1^(1/3) = %d: speedup beyond ~3 requires a window (space) of that order", cbrt(model.Work())),
		"model-P16 shows the theorem's contrast at the paper's core count")
	return tbl
}

// Ablation is one Section 9 configuration: the engine options that switch
// its optimization off (none for the baseline).
type Ablation struct {
	Name, Label string
	Opts        []piper.Option
}

// Ablated are the Section 9 runtime optimizations, measured one at a time
// on pipe-fib at half Figure 9's index (fine-grained serial stages stress
// them most).
var Ablated = []Ablation{
	{"AllOn", "baseline (all on)", nil},
	{"NoFolding", "no dependency folding", []piper.Option{piper.DependencyFolding(false)}},
	{"EagerEnabling", "eager enabling", []piper.Option{piper.LazyEnabling(false)}},
	{"NoTailSwap", "no tail swap", []piper.Option{piper.TailSwap(false)}},
}

// Start returns the ablation's pipe-fib run at p workers on a fresh
// engine, which the caller closes.
func (a Ablation) Start(p int, sz SizeSpec) (*piper.Engine, func()) {
	return PipeFibs[0].Start(p, sz.PipeFibN/2, a.Opts...)
}

// Ablations measures the Section 9 runtime optimizations individually on
// pipe-fib.
func Ablations(p int, sz SizeSpec) *Table {
	n := sz.PipeFibN / 2
	tbl := &Table{
		Title:  fmt.Sprintf("Section 9 ablations on pipe-fib (n=%d, P=%d)", n, p),
		Header: []string{"config", "TP", "slowdown", "steals", "cross-checks", "fold-hits", "tail-swaps"},
	}
	var base time.Duration
	for i, c := range Ablated {
		eng, run := c.Start(p, sz)
		tp := bestOf(sz.Reps, run)
		st := eng.Stats()
		eng.Close()
		if i == 0 {
			base = tp
		}
		tbl.AddRow(c.Label, secs(tp), ratio(tp, base),
			fmt.Sprint(st.Steals), fmt.Sprint(st.CrossChecks),
			fmt.Sprint(st.FoldHits), fmt.Sprint(st.TailSwaps))
	}
	return tbl
}
