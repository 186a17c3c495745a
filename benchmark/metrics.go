package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric the benchmark emits. The README's glossary
// says what each means; this table is what the program checks its own
// output against.
type metricDef struct {
	Name, Unit, Better string
	EndToEnd           bool
}

func e2e(name, unit, better string) metricDef { return metricDef{name, unit, better, true} }
func low(name, unit string) metricDef         { return metricDef{name, unit, "lower", false} }
func high(name, unit string) metricDef        { return metricDef{name, unit, "higher", false} }

// registry lists every metric: the end-to-end ones, measured with
// tracing off, then the per-layer ones of the traced run.
var registry = []metricDef{
	e2e("setup_s", "s", "lower"),
	e2e("throughput_ops_s", "op/s", "higher"),
	e2e("run_p50_ms", "ms", "lower"),
	e2e("run_tail_ms", "ms", "lower"),
	e2e("speedup_vs_serial", "ratio", "higher"),
	e2e("peak_rss_mb", "MiB", "lower"),

	// Reported only: a ladder rung is too coarse to carry a bound, the
	// 99th percentile is made of host stalls, and a share that is zero on
	// a healthy run cannot carry a relative bound.
	high("serve.sustained_rate_rps", "1/s"),
	low("serve.latency_p99_ms", "ms"),
	low("fail_share", "ratio"),

	low("host.spin_ns_per_unit", "ns"),

	low("deque.push_pop_ns", "ns"),
	low("deque.steal_ns", "ns"),
	low("deque.inject_offer_poll_ns", "ns"),
	low("deque.inject_mpmc_ns", "ns"),

	low("arena.get_release_64k_ns", "ns"),
	low("arena.get_release_2m_ns", "ns"),
	low("arena.get_release_par_64k_ns", "ns"),
	low("arena.get_release_par_2m_ns", "ns"),
	low("arena.gets_per_run", "count"),
	low("arena.miss_share", "ratio"),
	high("arena.recycled_mb_per_run", "MiB"),
	low("arena.live_bytes_idle", "B"),

	low("core.empty_iter_ns", "ns"),
	low("core.sps_iter_ns", "ns"),
	low("core.chain_iter_ns", "ns"),
	low("core.t1_over_ts", "ratio"),
	low("core.launch_us", "us"),
	low("core.submit_wait_hot_us", "us"),
	low("core.submit_wait_cold_us", "us"),
	low("core.park_wake_us", "us"),
	low("core.nested_launch_us", "us"),
	low("core.for_task_ns", "ns"),
	low("core.admission_fast_ns", "ns"),
	low("core.admission_handoff_us", "us"),

	high("core.iterations_per_run", "count"),
	low("core.steals_per_kiter", "count"),
	low("core.failed_steal_share", "ratio"),
	low("core.parks_per_run", "count"),
	low("core.wakes_per_run", "count"),
	low("core.promotions_per_kiter", "count"),
	low("core.cross_suspends_per_kiter", "count"),
	low("core.scope_suspends_per_kiter", "count"),
	high("core.batched_share", "ratio"),
	low("core.batch_split_share", "ratio"),
	high("core.fold_hit_share", "ratio"),
	low("core.throttle_parks_per_run", "count"),
	low("core.max_live_iters", "count"),
	low("core.plans_compiled_per_run", "count"),
	low("core.plan_deopts_per_run", "count"),
	low("core.frame_pool_miss_share", "ratio"),
	low("core.inject_overflows_per_run", "count"),
	low("core.admission_wait_us_per_req", "us"),
	low("core.saturation_share", "ratio"),
	low("core.quiet_p99_ms", "ms"),
	low("core.bulk_p99_ms", "ms"),
	low("core.tenant_share_err", "ratio"),

	low("core.enable_delay_us_p50", "us"),
	low("core.enable_delay_us_p90", "us"),
	low("core.sched_overhead_share", "ratio"),
	low("core.work_ms", "ms"),
	low("core.span_ms", "ms"),
	high("core.parallelism", "ratio"),
	low("core.brent_ratio", "ratio"),
	low("core.inject_to_run_us_p50", "us"),
	low("core.run_us_p50", "us"),

	low("dedup.chunk_ms_per_mib", "ms/MiB"),
	low("dedup.classify_ms_per_mib", "ms/MiB"),
	low("dedup.compress_ms_per_mib", "ms/MiB"),
	low("dedup.write_ms_per_mib", "ms/MiB"),
	low("dedup.serial_stage_share", "ratio"),
	high("dedup.dup_share", "ratio"),
	low("dedup.restore_ms_per_mib", "ms/MiB"),
	low("lz.factorize_ms_per_mib", "ms/MiB"),
	low("lz.decompress_ms_per_mib", "ms/MiB"),
	high("lz.ratio", "ratio"),
	low("lz.peak_live_arena_mb", "MiB"),
	high("lz.derived_throttle", "count"),
	low("vidsim.row_us", "us"),
	low("vidsim.bframe_us", "us"),
	low("vidsim.i_frame_share", "ratio"),
	low("vidsim.violations", "count"),
	low("pipefib.fine_ms", "ms"),
	low("pipefib.t1_over_ts", "ratio"),

	high("tbbpipe.dedup_ratio", "ratio"),
	high("bindstage.dedup_ratio", "ratio"),
	high("bindstage.x264_ratio", "ratio"),

	low("runtime.allocs_per_run", "count"),
	low("runtime.alloc_kb_per_run", "KiB"),
	low("runtime.gc_cycles_per_run", "count"),
	low("runtime.gc_pause_ms_per_run", "ms"),

	high("workload.offered_rps", "1/s"),
	low("workload.gen_lag_us_p99", "us"),
	low("workload.backlog_end", "count"),

	low("trace.overhead_share", "ratio"),
	low("trace.twin_ratio", "ratio"),
}

func lookupMetric(name string) (metricDef, bool) {
	if i := registryIndex(name); i < len(registry) {
		return registry[i], true
	}
	return metricDef{}, false
}

// measurement is one emitted value. Samples is how many observations
// stand behind it (0 where the value is a count or a ratio of counts).
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics collects the values of one run by name.
type metrics map[string]measurement

// set records a value under a registered name, with the registry's unit.
func (m metrics) set(name string, v float64, samples int) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	m[name] = measurement{Value: v, Unit: d.Unit, Samples: samples}
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Warnings  []string `json:"warnings,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Env       env      `json:"env"`
}

func (r *result) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// notef records the base of a ratio, or another fact a reader needs
// beside a value.
func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one attempted operation that errored, was refused or
// failed its output check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Warnings) < 20 {
		r.warnf("FAILED: "+format, args...)
	}
}

// benchSpec is BENCHMARK.json. It decides which metrics a run emits with
// tracing off (end_to_end) and on (per_layer), and carries the bounds
// -compare applies.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const specFile = "BENCHMARK.json"

// findSpec looks for BENCHMARK.json in the working directory and then in
// its parent, which is where it sits when the tests run from benchmark/.
func findSpec() (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, specFile)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found in . or ..", specFile)
}

func loadSpec() (*benchSpec, string, error) {
	path, err := findSpec()
	if err != nil {
		return nil, "", err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &s, path, nil
}

func (s *benchSpec) save(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// emitted is the names a run must print: the spec's end-to-end metrics
// with tracing off, its per-layer metrics with tracing on.
func (s *benchSpec) emitted(trace bool) []string {
	var names []string
	if trace {
		for _, m := range s.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range s.EndToEnd {
			names = append(names, m.Name)
		}
	}
	return names
}

func (s *benchSpec) bound(name string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}

// printHuman lists every measured metric by name with its unit and
// sample count, then the warnings.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s trace=%v seed=%d nproc=%d gomaxprocs=%d %s commit=%s window=%.1fs%s\n",
		r.Workload, r.Trace, r.Env.Seed, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit,
		r.Env.WindowSeconds, map[bool]string{true: " DEGRADED (nproc < 2)"}[r.Env.Degraded])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return registryIndex(names[a]) < registryIndex(names[b]) })
	for _, n := range names {
		m := r.Metrics[n]
		if m.Samples > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d fail_share=%.6f correct=%v\n", r.Attempted, r.Failed, r.failShare(), r.Correct)
	for _, s := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", s)
	}
}

func (r *result) failShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// registryIndex is name's position in the registry, or len(registry).
func registryIndex(name string) int {
	for i, d := range registry {
		if d.Name == name {
			return i
		}
	}
	return len(registry)
}

// contractLine is the last line of standard output: exactly the keys the
// driver reads, and exactly the metrics the spec lists for this mode.
func (r *result) contractLine(names []string) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
