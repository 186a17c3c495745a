package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// env records where and how a result was taken. Every result carries it,
// and -compare refuses results that are degraded or that were not taken
// the same way.
type env struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          uint64  `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	// Degraded marks a run on fewer than two CPUs: its parallel numbers
	// are not measurements of parallel execution.
	Degraded bool `json:"degraded"`
}

// nproc is the worker count every engine in the benchmark runs with:
// GOMAXPROCS = Workers = the CPUs the host gives us.
func nproc() int { return runtime.NumCPU() }

func currentEnv(seed uint64, seconds float64) env {
	runtime.GOMAXPROCS(runtime.NumCPU())
	e := env{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
		Seed:          seed,
		WindowSeconds: seconds,
	}
	e.Degraded = e.NumCPU < 2
	// The toolchain stamps the revision when it builds inside a git
	// repository; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				e.Commit = s.Value[:12]
			}
		}
	}
	return e
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
