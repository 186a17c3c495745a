package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// workloadNames is the order the suite runs in.
var workloadNames = []string{"sched-floor", "dedup-batch", "x264-onthefly", "lz-stream", "serve-open"}

// newBatch returns the batch workload of that name, or nil.
func newBatch(name string, quick bool) batchWorkload {
	switch name {
	case "sched-floor":
		w := &schedFloor{}
		if quick {
			w.scale = 50
		}
		return w
	case "dedup-batch":
		w := &dedupBatch{}
		if quick {
			w.size = 256 << 10
		}
		return w
	case "x264-onthefly":
		w := &x264{}
		if quick {
			w.frames = 12
		}
		return w
	case "lz-stream":
		w := &lzStream{}
		if quick {
			w.size = 256 << 10
		}
		return w
	}
	return nil
}

// runWorkload measures one workload in this process.
func runWorkload(cfg config) (*result, error) {
	res := &result{Workload: cfg.workload, Trace: cfg.trace, Metrics: metrics{}, Env: currentEnv(cfg.seed, cfg.window.Seconds())}
	var err error
	if cfg.workload == "serve-open" {
		err = runServe(cfg, res)
	} else if w := newBatch(cfg.workload, cfg.quick); w != nil {
		err = runBatch(w, cfg, res)
	} else {
		err = fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	hostReport(res.Metrics, res)
	if cfg.trace {
		checkSignatures(res)
	}
	res.Metrics.set("fail_share", res.failShare(), int(res.Attempted))
	res.Correct = res.Failed == 0
	return res, nil
}

// checkSignatures warns when a workload's counters do not carry the
// signature it was chosen for: the layer it is meant to bypass did work,
// or the layer it is meant to load did not.
func checkSignatures(res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			res.warnf("signature: "+format, args...)
		}
	}
	expect(v("arena.live_bytes_idle") == 0, "arena.live_bytes_idle = %g, want 0", v("arena.live_bytes_idle"))
	switch res.Workload {
	case "sched-floor":
		expect(v("arena.gets_per_run") == 0, "arena.gets_per_run = %g on sched-floor, want 0", v("arena.gets_per_run"))
		expect(v("core.batched_share") > 0.9, "core.batched_share = %.3f on sched-floor, want > 0.9", v("core.batched_share"))
		expect(v("core.promotions_per_kiter") < 1, "core.promotions_per_kiter = %.3f on sched-floor, want about 0", v("core.promotions_per_kiter"))
	case "serve-open":
		expect(v("arena.gets_per_run") == 0, "arena.gets_per_run = %g on serve-open, want 0", v("arena.gets_per_run"))
	case "x264-onthefly":
		expect(v("core.plan_deopts_per_run") > 0, "core.plan_deopts_per_run = 0 on x264-onthefly, want > 0")
		expect(v("core.cross_suspends_per_kiter") > 0, "core.cross_suspends_per_kiter = 0 on x264-onthefly, want > 0")
	}
}

func writeResults(path string, results []*result) error {
	raw, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(raw, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// buildDir is where the suite keeps its children's result files and the
// spans; .gitignore names it.
const buildDir = ".bench_build"

// runChild measures one workload in a child process of its own, so that
// peak memory and warm caches are that workload's alone, and reads back
// the full result the child wrote.
func runChild(cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(buildDir, fmt.Sprintf("result-%s-trace%d.json", cfg.workload, b2i(cfg.trace)))
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64),
		"-trace", strconv.Itoa(b2i(cfg.trace)),
		"-out", out,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if cfg.trace {
		args = append(args, "-spans", filepath.Join(cfg.spansOut, "spans-"+cfg.workload+".json"))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	results, err := readResults(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return nil, err
	}
	return results[0], nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runSuite runs every workload, each in its own child process, one after
// the other: the untraced pass reps times (with seeds seed, seed+1, …),
// then the traced pass once unless traced is false.
func runSuite(cfg config, reps int, traced bool) ([]*result, error) {
	if cfg.spansOut == "" {
		cfg.spansOut = buildDir
	}
	var results []*result
	run := func(c config) error {
		r, err := runChild(c)
		if err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.trace, c.seed = name, false, cfg.seed+uint64(rep)
			if err := run(c); err != nil {
				return results, err
			}
		}
	}
	if traced {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.trace = name, true
			if err := run(c); err != nil {
				return results, err
			}
		}
	}
	return results, nil
}
