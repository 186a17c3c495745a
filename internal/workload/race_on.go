//go:build race

package workload

// RaceEnabled reports that this binary was built with the race detector,
// whose 5–20× slowdown and own allocations make wall-clock and
// allocation-count assertions meaningless.
const RaceEnabled = true
