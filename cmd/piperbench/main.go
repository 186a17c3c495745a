// Command piperbench regenerates the paper's evaluation tables and the
// throttling experiments on this host.
//
// Usage:
//
//	piperbench -experiment all -size small -plist 1,2,4
//	piperbench -experiment fig8 -size native
//
// Experiments: fig6 (ferret), fig7 (dedup), fig8 (x264), fig9 (pipe-fib
// dependency folding), thm12 (uniform throttling), fig10 (pathological
// pipeline), ablate (Section 9 optimizations), arena (data-plane buffer
// recycling on/off), plan (plan compiler on/off), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"piper/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig6|fig7|fig8|fig9|thm12|fig10|ablate|adaptive|elastic|grain|arena|plan|all")
		size       = flag.String("size", "small", "small|native")
		plist      = flag.String("plist", "", "comma-separated worker counts (default 1,2,...,NumCPU)")
		pmax       = flag.Int("pmax", runtime.NumCPU(), "worker count for single-P experiments")
	)
	flag.Parse()

	sz := bench.Small()
	if *size == "native" {
		sz = bench.Native()
	}
	ps := defaultPs()
	if *plist != "" {
		ps = nil
		for _, s := range strings.Split(*plist, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "piperbench: bad -plist entry %q\n", s)
				os.Exit(2)
			}
			ps = append(ps, p)
		}
	}

	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	run := map[string]func(){
		"fig6":     func() { bench.Fig6Ferret(os.Stdout, ps, sz) },
		"fig7":     func() { bench.Fig7Dedup(os.Stdout, ps, sz) },
		"fig8":     func() { bench.Fig8X264(os.Stdout, ps, sz) },
		"fig9":     func() { bench.Fig9PipeFib(os.Stdout, *pmax, sz) },
		"thm12":    func() { bench.Thm12Uniform(os.Stdout, *pmax, sz) },
		"fig10":    func() { bench.Fig10Pathological(os.Stdout, *pmax, sz) },
		"ablate":   func() { bench.Ablations(os.Stdout, *pmax, sz) },
		"adaptive": func() { bench.AdaptiveThrottle(os.Stdout, *pmax, sz) },
		"elastic":  func() { bench.Elasticity(os.Stdout, *pmax, sz) },
		"grain":    func() { bench.GrainAblation(os.Stdout, *pmax, sz) },
		"arena":    func() { bench.ArenaAblation(os.Stdout, *pmax, sz) },
		"plan":     func() { bench.PlanAblation(os.Stdout, *pmax, sz) },
	}
	if *experiment == "all" {
		for _, name := range []string{"fig6", "fig7", "fig8", "fig9", "thm12", "fig10", "ablate", "adaptive", "elastic", "grain", "arena", "plan"} {
			run[name]()
		}
		return
	}
	f, ok := run[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "piperbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	f()
}

func defaultPs() []int {
	n := runtime.NumCPU()
	ps := []int{1}
	for p := 2; p <= n; p *= 2 {
		ps = append(ps, p)
	}
	if last := ps[len(ps)-1]; last != n {
		ps = append(ps, n)
	}
	return ps
}
