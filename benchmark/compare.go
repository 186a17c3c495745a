package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// samples groups the untraced results of a file: workload → metric → one
// value per repetition.
type samples map[string]map[string][]float64

func collect(results []*result) (samples, env, error) {
	s := samples{}
	var e env
	for _, r := range results {
		if r.Trace {
			continue
		}
		if r.Env.Degraded {
			return nil, e, fmt.Errorf("result for %s was taken on %d CPU and is marked degraded: it is not a measurement of parallel execution", r.Workload, r.Env.NumCPU)
		}
		e = r.Env
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	if len(s) == 0 {
		return nil, e, fmt.Errorf("no untraced results")
	}
	return s, e, nil
}

// runSpread is the run-to-run spread of one metric's repetitions: the
// interquartile distance over the median from four repetitions on, the
// whole range over the median below that, nothing for a single run.
func runSpread(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return math.Abs((s[len(s)-1] - s[0]) / median(xs))
}

// verdict judges b against a for a metric that is better in the given
// direction: worsening is the relative change of the median in the bad
// direction.
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	worsening := (mb - ma) / ma
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case runSpread(a) > bound || runSpread(b) > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per end-to-end metric and workload and
// returns the exit code: 1 when a row is worse or more operations failed,
// 2 when the files cannot be compared.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) int {
	refuse := func(err error) int {
		fmt.Fprintln(w, "compare: refused:", err)
		return 2
	}
	ra, err := readResults(pathA)
	if err != nil {
		return refuse(err)
	}
	rb, err := readResults(pathB)
	if err != nil {
		return refuse(err)
	}
	sa, ea, err := collect(ra)
	if err != nil {
		return refuse(fmt.Errorf("%s: %w", pathA, err))
	}
	sb, eb, err := collect(rb)
	if err != nil {
		return refuse(fmt.Errorf("%s: %w", pathB, err))
	}
	if ea.NumCPU != eb.NumCPU || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.WindowSeconds != eb.WindowSeconds {
		return refuse(fmt.Errorf("taken differently: nproc %d/%d, GOMAXPROCS %d/%d, window %gs/%gs",
			ea.NumCPU, eb.NumCPU, ea.GOMAXPROCS, eb.GOMAXPROCS, ea.WindowSeconds, eb.WindowSeconds))
	}
	fmt.Fprintf(w, "a: %s (commit %s, %s)\nb: %s (commit %s, %s)\n", pathA, ea.Commit, ea.GoVersion, pathB, eb.Commit, eb.GoVersion)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %8s %7s %7s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "sprd a", "sprd b", "verdict")

	code := 0
	workloads := make([]string, 0, len(sa))
	for name := range sa {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		if sb[wl] == nil {
			return refuse(fmt.Errorf("%s has no result for %s", pathB, wl))
		}
		for _, em := range spec.EndToEnd {
			a, b := sa[wl][em.Name], sb[wl][em.Name]
			if len(a) == 0 || len(b) == 0 {
				return refuse(fmt.Errorf("%s / %s is missing from one file", wl, em.Name))
			}
			v := verdict(a, b, em.Better, em.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				wl, em.Name, median(a), median(b), 100*(median(b)-median(a))/median(a), 100*em.Bound,
				100*runSpread(a), 100*runSpread(b), v)
		}
		fa, fb := median(sa[wl]["fail_share"]), median(sb[wl]["fail_share"])
		if fb > fa {
			code = 1
			fmt.Fprintf(w, "%-14s %-18s %14.6f %14.6f  more operations failed\n", wl, "fail_share", fa, fb)
		}
	}
	return code
}

// The driver's contract caps a bound at a quarter; below 3 % a bound is
// inside the noise of any host.
const (
	minBound = 0.03
	maxBound = 0.25
)

// calibrateSpec derives each end-to-end metric's bound from the spread
// the repetitions showed and writes it into BENCHMARK.json. The bound is
// three times the widest spread any workload showed, at least minBound
// and at most maxBound. A metric whose spread exceeds maxBound on some
// workload cannot be guarded at all: it moves to the reported-only
// per-layer list. setup_s keeps the widest bound and never moves.
func calibrateSpec(spec *benchSpec, path string, results []*result, w io.Writer) error {
	s, _, err := collect(results)
	if err != nil {
		return err
	}
	var kept []specMetric
	for _, em := range spec.EndToEnd {
		worst, where := 0.0, ""
		fmt.Fprintf(w, "%s\n", em.Name)
		for _, wl := range workloadNames {
			xs := s[wl][em.Name]
			q1, q3 := quartiles(xs)
			sp := runSpread(xs)
			fmt.Fprintf(w, "  %-14s median %14.4f  q1 %14.4f  q3 %14.4f  spread %5.1f%%  n=%d\n", wl, median(xs), q1, q3, 100*sp, len(xs))
			if sp > worst {
				worst, where = sp, wl
			}
		}
		switch {
		case em.Name == "setup_s":
			em.Bound = maxBound
		case worst > maxBound:
			fmt.Fprintf(w, "  -> spread %.1f%% on %s exceeds %.0f%%: demoted to a reported-only per-layer metric\n", 100*worst, where, 100*maxBound)
			spec.PerLayer = append(spec.PerLayer, specLayer{em.Name, em.Unit, em.Better})
			continue
		default:
			em.Bound = math.Min(math.Max(math.Ceil(300*worst)/100, minBound), maxBound)
		}
		weak := ""
		if 3*worst > em.Bound {
			weak = "; the spread is more than a third of the bound, so this row will often read unresolved"
		}
		fmt.Fprintf(w, "  -> bound %.0f%% (widest spread %.1f%% on %s)%s\n", 100*em.Bound, 100*worst, where, weak)
		kept = append(kept, em)
	}
	spec.EndToEnd = kept
	return spec.save(path)
}
