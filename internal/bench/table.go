// Package bench is the experiment harness: it reruns every table and
// figure of the paper's evaluation (Section 10) and the throttling
// experiments of Section 11 on the synthetic substrates, printing rows in
// the same shape the paper reports.
//
// Measured columns are wall-clock on this host; "model" columns are the
// greedy-bound predictions min(P, T1/T∞(K)) from the dag analyzer, which
// extend the tables past the host's core count (the paper's machine had
// 16 cores).
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// bestOf runs f reps times (at least once) and keeps the minimum
// duration, the standard noise-rejection protocol for small benchmarks.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < max(reps, 1); i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
