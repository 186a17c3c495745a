package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank for
// the percentile to count as supported by the sample.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending-sorted
// sample: the smallest value with at least ceil(q·n) samples at or below
// it. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond reports how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supportedTail returns the highest percentile of the ladder that still
// has minBeyond samples beyond it, or 0.5 when none does.
func supportedTail(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.75} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) gives
// them, which is what the driver's spread criterion uses. It needs two
// samples; with fewer both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// durations collects wall times of repeated runs.
type durations []time.Duration

func (d durations) ms() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	return out
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// medianMs is the median of d in milliseconds.
func (d durations) medianMs() float64 { return median(d.ms()) }

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}
