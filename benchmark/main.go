// Command benchmark is the repo's benchmark: five workloads, end-to-end
// metrics measured with tracing off, per-layer metrics from a separate
// traced run, every output checked against a serial reference. See
// README.md in this directory and BENCHMARK.json at the repo root.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	quick    bool   // shrink inputs and probes for the smoke run
	spansOut string // where the traced run writes its spans: a file with -workload, a directory without
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this workload alone and end with the driver's result line; empty runs all five")
		seed      = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
		spans     = flag.String("spans", "", "where the traced pass writes its spans: a file with -workload, a directory without")
		out       = flag.String("out", "", "file the results are written to as JSON, for -compare")
		reps      = flag.Int("reps", 1, "without -workload: repeat the untraced pass this many times, with seeds seed, seed+1, ...")
		quick     = flag.Bool("quick", false, "smoke run: small inputs, about 0.3 s per workload")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a worse row")
		calibrate = flag.Int("calibrate", 0, "repeat the untraced pass k >= 5 times and write the bounds into BENCHMARK.json")
	)
	flag.Parse()

	spec, specPath, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *quick {
			*seconds = 0.3
		}
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace != 0, quick: *quick, spansOut: *spans}

	var results []*result
	if *workload != "" {
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		results = []*result{res}
	} else {
		if *calibrate > 0 {
			if *calibrate < 5 {
				fatal(fmt.Errorf("-calibrate needs k >= 5"))
			}
			*reps = *calibrate
		}
		if results, err = runSuite(cfg, *reps, *calibrate == 0); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal(err)
		}
	}
	if *calibrate > 0 {
		if err := calibrateSpec(spec, specPath, results, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *workload != "" {
		// The driver's line comes last.
		results[0].printHuman(os.Stdout)
		line, err := results[0].contractLine(spec.emitted(cfg.trace))
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	for _, r := range results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
