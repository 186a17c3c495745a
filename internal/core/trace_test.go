package core

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestTraceCapturesSegments(t *testing.T) {
	e := newTestEngine(t, 2)
	e.StartTrace()
	i := 0
	e.PipeWhile(func() bool { return i < 20 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
	})
	var buf bytes.Buffer
	if err := e.StopTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("no trace events captured")
	}
	sawIter, sawControl := false, false
	for _, ev := range evs {
		name := ev["name"].(string)
		if strings.HasPrefix(name, "iter ") {
			sawIter = true
		}
		if name == "pipe_while control" {
			sawControl = true
		}
		if ev["ph"] != "X" {
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
		if ev["dur"].(float64) < 0 {
			t.Fatal("negative duration")
		}
	}
	if !sawIter || !sawControl {
		t.Fatalf("missing event kinds: iter=%v control=%v", sawIter, sawControl)
	}
}

// TestTracedRunBatches: tracing records the schedule without changing it.
// A traced pipeline of bodies that cost nothing (on a clock that says so)
// on one worker claims batches exactly as an untraced one does.
func TestTracedRunBatches(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 1
		o.hooks = withClock(nil, new(costClock).ns.Load)
	})
	e.StartTrace()
	const n = 2000
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) { i++ })
	if err := e.StopTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if s := e.Stats(); s.BatchedIterations == 0 || rep.FinalGrain == 1 {
		t.Errorf("traced run: BatchedIterations = %d, FinalGrain = %d; want batches as in an untraced run",
			s.BatchedIterations, rep.FinalGrain)
	}
	checkEngineDrained(t, e)
}

func TestTraceDisabledByDefault(t *testing.T) {
	e := newTestEngine(t, 2)
	i := 0
	e.PipeWhile(func() bool { return i < 5 }, func(it *Iter) { i++ })
	var buf bytes.Buffer
	if err := e.StopTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("expected empty trace, got %d events", len(evs))
	}
}
