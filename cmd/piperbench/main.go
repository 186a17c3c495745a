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
// recycling on/off), all.
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
		experiment = flag.String("experiment", "all", "fig6|fig7|fig8|fig9|thm12|fig10|ablate|arena|all")
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
	run := map[string]func() *bench.Table{
		"fig6":   func() *bench.Table { return bench.Ferret(sz).Table(ps, sz.Reps) },
		"fig7":   func() *bench.Table { return bench.Dedup(sz).Table(ps, sz.Reps) },
		"fig8":   func() *bench.Table { return bench.X264(sz).Table(ps, sz.Reps) },
		"fig9":   func() *bench.Table { return bench.Fig9PipeFib(*pmax, sz) },
		"thm12":  func() *bench.Table { return bench.Thm12Uniform(*pmax, sz) },
		"fig10":  func() *bench.Table { return bench.Fig10Pathological(*pmax, sz) },
		"ablate": func() *bench.Table { return bench.Ablations(*pmax, sz) },
		"arena":  func() *bench.Table { return bench.ArenaAblation(*pmax, sz) },
	}
	if *experiment == "all" {
		for _, name := range []string{"fig6", "fig7", "fig8", "fig9", "thm12", "fig10", "ablate", "arena"} {
			run[name]().Fprint(os.Stdout)
		}
		return
	}
	f, ok := run[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "piperbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	f().Fprint(os.Stdout)
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
