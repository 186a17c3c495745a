//go:build !race

package workload

// RaceEnabled: see race_on.go.
const RaceEnabled = false
