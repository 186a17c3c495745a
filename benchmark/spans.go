package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed interval recorded by the benchmark around a call
// into a layer. Times are nanoseconds since the tracer's base. Parent is
// the index of the span that caused this one, or -1; spans of one run or
// request share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// maxSpansOut caps the spans one workload writes: the first runs are
// kept whole, which is enough to read a schedule, and the file stays
// small.
const maxSpansOut = 20000

// tracer keeps spans in memory until the benchmark ends. It is used from
// the harness goroutine only; pipeline bodies write stamps instead.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxSpansOut)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) full() bool { return len(t.spans) >= maxSpansOut }

// add appends a finished span and returns its index.
func (t *tracer) add(name string, run, parent int, start, end int64) int {
	if t.full() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// timed runs f inside a span.
func (t *tracer) timed(name string, run, parent int, f func()) int {
	start := t.now()
	f()
	return t.add(name, run, parent, start, t.now())
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span  `json:"spans"`
		Self  []int64 `json:"self_ns"`
	}{t.spans, selfTimes(t.spans)}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// A stamp is the start and end a pipeline body wrote for one stage of
// one iteration. Bodies write into a slice preallocated for the whole
// run, indexed by iteration × stage, so tracing takes no lock and
// allocates nothing inside a body.
type stamp struct{ start, end int64 }

// stageTrace is the stamps of one traced pipeline run.
type stageTrace struct {
	names  []string // one per stage
	serial []bool   // whether the stage is entered through a cross edge (stage 0 always is)
	st     []stamp  // iteration-major
	base   time.Time
}

func newStageTrace(iters int, names []string, serial []bool) *stageTrace {
	return &stageTrace{names: names, serial: serial, st: make([]stamp, iters*len(names)), base: time.Now()}
}

// now reads the trace's clock; on a nil trace, which records nothing, it
// costs a branch.
func (s *stageTrace) now() int64 {
	if s == nil {
		return 0
	}
	return int64(time.Since(s.base))
}

// set stamps stage j of iteration i. A nil trace records nothing, so one
// body serves the traced and the untraced run.
func (s *stageTrace) set(i int64, j int, start, end int64) {
	if s != nil {
		s.st[int(i)*len(s.names)+j] = stamp{start, end}
	}
}

func (s *stageTrace) stages() int { return len(s.names) }

func (s *stageTrace) iters() int { return len(s.st) / len(s.names) }

// row is iteration i's stamps, one per stage.
func (s *stageTrace) row(i int) []stamp { return s.st[i*len(s.names) : (i+1)*len(s.names)] }

// enableDelays returns, for each serial stage instance that ran, how
// long it sat enabled before it started: start − max(end of the
// iteration's previous stage, end of the same stage in the previous
// iteration). A stage that was never stamped (start and end both zero)
// is skipped.
func (s *stageTrace) enableDelays() []float64 {
	var out []float64
	n, k := s.iters(), s.stages()
	for i := 0; i < n; i++ {
		row := s.row(i)
		for j := 0; j < k; j++ {
			if !s.serial[j] || (row[j].start == 0 && row[j].end == 0) {
				continue
			}
			var enabled int64
			if j > 0 {
				enabled = row[j-1].end
			}
			if i > 0 {
				enabled = max(enabled, s.row(i - 1)[j].end)
			}
			if i == 0 && j == 0 {
				continue // nothing precedes the first node
			}
			out = append(out, float64(max(row[j].start-enabled, 0)))
		}
	}
	return out
}

// busy is the total stamped stage time.
func (s *stageTrace) busy() int64 {
	var b int64
	for _, x := range s.st {
		b += x.end - x.start
	}
	return b
}

// export adds the run's spans to t, shifted so that they sit inside the
// run span that starts at runStart on t's clock: one span per iteration,
// with its stages as children.
func (s *stageTrace) export(t *tracer, run, parent int, runStart int64) {
	for i := 0; i < s.iters() && !t.full(); i++ {
		row := s.row(i)
		first, last := row[0].start, row[0].end
		for _, x := range row {
			if x.end > last {
				last = x.end
			}
		}
		it := t.add("iteration", run, parent, runStart+first, runStart+last)
		for j, x := range row {
			if x.start != 0 || x.end != 0 {
				t.add(s.names[j], run, it, runStart+x.start, runStart+x.end)
			}
		}
	}
}
