package main

import (
	"testing"
	"time"
)

// The smoke run: every workload for about 0.3 s, untraced and traced.
// Every registered metric must come out of the mode that owns it, once,
// with the registry's unit, and every output check must pass.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, window: 300 * time.Millisecond, trace: trace, quick: true}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d warnings=%v", name, trace, res.Correct, res.Attempted, res.Failed, res.Warnings)
			}
			for _, d := range registry {
				m, ok := res.Metrics[d.Name]
				if d.EndToEnd || trace {
					if !ok {
						t.Errorf("%s trace=%v: metric %s not emitted", name, trace, d.Name)
					} else if m.Unit != d.Unit || m.Unit == "" {
						t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
					}
				}
			}
			for n := range res.Metrics {
				if _, ok := lookupMetric(n); !ok {
					t.Errorf("%s trace=%v: unregistered metric %s", name, trace, n)
				}
			}
			for _, e := range []string{"setup_s", "throughput_ops_s", "run_p50_ms", "run_tail_ms", "speedup_vs_serial", "peak_rss_mb"} {
				if v := res.Metrics[e].Value; !(v > 0) {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", name, trace, e, v)
				}
			}
			if trace && res.Metrics["arena.live_bytes_idle"].Value != 0 {
				t.Errorf("%s: arena.live_bytes_idle = %v", name, res.Metrics["arena.live_bytes_idle"].Value)
			}
		}
	}
}

// BENCHMARK.json and the registry must agree: the spec lists exactly the
// registered metrics, with the same units and directions.
func TestSpecMatchesRegistry(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]specLayer{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = specLayer{m.Name, m.Unit, m.Better}
		if m.Bound < 0.03 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0.03, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		if _, dup := listed[m.Name]; dup {
			t.Errorf("%s listed twice", m.Name)
		}
		listed[m.Name] = m
	}
	for _, d := range registry {
		if got, ok := listed[d.Name]; !ok {
			t.Errorf("registered metric %s is not in BENCHMARK.json", d.Name)
		} else if got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("%s: BENCHMARK.json has %s/%s, registry %s/%s", d.Name, got.Unit, got.Better, d.Unit, d.Better)
		}
		delete(listed, d.Name)
	}
	for n := range listed {
		t.Errorf("BENCHMARK.json lists %s, which the program does not measure", n)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloadNames[i])
		}
	}
}
