package main

import (
	"sync/atomic"
	"time"

	"piper/internal/workload"
)

// The reference host runs in regimes: for seconds to minutes at a time a
// single thread executes the same loop 25–30 % slower, whatever this
// process does (see README, "Host noise"). A 20 s window that falls into
// one regime cannot be compared with one that falls into the other. So
// the benchmark times a fixed spin beside everything it measures and
// reports durations in nominal-host time: what the run would have taken
// on a host that executes one workload.Spin unit in nominalSpinNs.
const (
	nominalSpinNs  = 1.5     // about the reference host's fast regime
	hostProbeUnits = 1 << 20 // about 1.5 ms
)

var (
	hostSink atomic.Uint64
	// hostNs keeps every probe's ns per unit, for the report. Probes run
	// on the harness goroutine only.
	hostNs []float64
)

// hostFactor times the fixed spin and returns how many times slower than
// the nominal host this host is running right now.
func hostFactor() float64 {
	t0 := time.Now()
	hostSink.Add(workload.Spin(hostProbeUnits))
	ns := float64(time.Since(t0)) / hostProbeUnits
	hostNs = append(hostNs, ns)
	return ns / nominalSpinNs
}

// hostFactors takes n probes in a row.
func hostFactors(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = hostFactor()
	}
	return out
}

// timed measures f and returns its duration in nominal-host time.
func timed(f func()) time.Duration {
	factor := hostFactor()
	t0 := time.Now()
	f()
	return nominal(time.Since(t0), factor)
}

// nominal converts a duration measured while the host ran at factor into
// nominal-host time.
func nominal(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) / factor)
}

// hostReport records the regime the run saw.
func hostReport(m metrics, res *result) {
	m.set("host.spin_ns_per_unit", median(hostNs), len(hostNs))
	s := sortedCopy(hostNs)
	res.notef("host speed: spin %.3f ns/unit median over %d probes (p10 %.3f, p90 %.3f); durations are reported in nominal-host time (%.1f ns/unit), i.e. raw wall time ÷ %.3f at the median",
		median(hostNs), len(hostNs), percentile(s, 0.1), percentile(s, 0.9), nominalSpinNs, median(hostNs)/nominalSpinNs)
}
