package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: the overlap counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// A hand-written SPS trace: stage 0 and stage 2 are serial, stage 1 is
// parallel.
func TestEnableDelays(t *testing.T) {
	st := &stageTrace{
		names:  []string{"s0", "par", "s2"},
		serial: []bool{true, false, true},
		base:   time.Now(),
		st: []stamp{
			// iteration 0
			{10, 20}, {25, 60}, {70, 80},
			// iteration 1: stage 0 enabled at 20 (its predecessor's stage 0
			// ended), started at 23; stage 2 enabled at max(its own stage 1
			// end 50, predecessor's stage 2 end 80) = 80, started at 95.
			{23, 30}, {31, 50}, {95, 99},
			// iteration 2: stage 2 enabled by its own stage 1 (end 140), after
			// the predecessor's stage 2 (99); started at 141. Stage 0 started
			// the moment it was enabled.
			{30, 35}, {36, 140}, {141, 150},
		},
	}
	// (0,0) has no predecessor and is skipped; (0,2) is enabled at 60.
	want := []float64{10, 3, 15, 0, 1}
	if got := st.enableDelays(); !reflect.DeepEqual(got, want) {
		t.Errorf("enableDelays = %v, want %v", got, want)
	}
	if got, want := st.busy(), int64(10+35+10+7+19+4+5+104+9); got != want {
		t.Errorf("busy = %d, want %d", got, want)
	}

	tr := newTracer()
	run := tr.add("run", 0, -1, 0, 200)
	st.export(tr, 0, run, 0)
	if len(tr.spans) != 1+3*4 {
		t.Fatalf("exported %d spans, want %d", len(tr.spans), 1+3*4)
	}
	if it := tr.spans[1]; it.Name != "iteration" || it.Start != 10 || it.End != 80 || it.Parent != run {
		t.Errorf("first iteration span = %+v", it)
	}
	// The iteration's self time is what its stages do not cover.
	if self := selfTimes(tr.spans)[1]; self != 70-(10+35+10) {
		t.Errorf("iteration self time = %d, want %d", self, 70-55)
	}
}

// A stage that never ran (a narrower row in a shared layout) is skipped.
func TestEnableDelaysSkipsUnstamped(t *testing.T) {
	st := &stageTrace{
		names:  []string{"s0", "s1"},
		serial: []bool{true, true},
		base:   time.Now(),
		st:     []stamp{{1, 2}, {0, 0}, {5, 6}, {0, 0}},
	}
	if got, want := st.enableDelays(), []float64{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("enableDelays = %v, want %v", got, want)
	}
}
