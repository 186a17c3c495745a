package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the check-right a stage advance performs while a worker is
// parked (frame.advance): PIPER's lazy enabling leaves a satisfied cross
// edge for an awake thief to find, and ours park, so with one asleep the
// advancing iteration must deliver the waiter itself.

// runParkedEnable runs a Grain(1) pipeline on two workers in which
// iteration h (the holder) sits in stage 1 until iteration h+1 (the waiter)
// is parked on Wait(2) and the other worker is parked too. The holder then
// advances past stage 2 and waits, bounded, for the waiter's stage-2 code.
// It reports whether that code ran before the holder returned and how many
// of the two frames dispatched on a compiled plan. With h > 0 the loop
// condition holds iteration h back until iteration 0 has sealed the plan,
// and iteration 0 spends 5 µs in stage 3 so the recorded Continue(3) is
// not fused away.
func runParkedEnable(t *testing.T, h int64) (early bool, planned int64, s Stats) {
	t.Helper()
	e := newEngineOpts(t, func(o *Options) { o.Workers, o.Grain = 2, 1 })
	var waiter atomic.Pointer[frame]
	var ran, sawRan atomic.Bool
	var nPlanned atomic.Int64
	hold := make(chan struct{})
	i := int64(0)
	cond := func() bool {
		if i == h && h > 0 && !settles(5*time.Second, func() bool { return e.Stats().PlansCompiled > 0 }) {
			t.Error("iteration 0 never sealed a plan")
		}
		i++
		return i <= h+2
	}
	sub := e.Submit(nil, cond, func(it *Iter) {
		k := it.Index()
		it.Continue(1)
		if (k == h || k == h+1) && it.f.plan != nil {
			nPlanned.Add(1)
		}
		switch k {
		case h:
			<-hold
		case h + 1:
			waiter.Store(it.f)
		}
		it.Wait(2)
		if k == h+1 {
			ran.Store(true)
		}
		it.Continue(3)
		if k == 0 {
			busyFor(5 * time.Microsecond)
		}
		if k == h {
			for end := time.Now().Add(5 * time.Second); !ran.Load() && time.Now().Before(end); {
				runtime.Gosched()
			}
			sawRan.Store(ran.Load())
		}
	})
	parked := settles(5*time.Second, func() bool {
		f := waiter.Load()
		return f != nil && f.status.Load() == statusWaitCross && e.idle.Load() == 1
	})
	close(hold)
	if err := sub.Wait(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	if !parked {
		t.Fatal("the waiter never parked on Wait(2) beside a parked worker")
	}
	checkEngineDrained(t, e)
	return sawRan.Load(), nPlanned.Load(), e.Stats()
}

// TestParkedWorkerEnabledByAdvance pins the interpreted call site: the
// holder is iteration 0, which interprets (it records the plan), and the
// waiter was created before any plan existed. At the parent commit the
// waiter stayed parked until the holder retired.
func TestParkedWorkerEnabledByAdvance(t *testing.T) {
	early, planned, s := runParkedEnable(t, 0)
	if planned != 0 {
		t.Fatalf("%d of the two frames dispatched on a plan, want 0 (interpreted)", planned)
	}
	if !early {
		t.Error("the waiter's stage 2 ran only after the holder returned: the advance past its edge did not wake the parked worker")
	}
	if s.ParkedEnables < 1 {
		t.Errorf("ParkedEnables = %d, want >= 1", s.ParkedEnables)
	}
}

// TestParkedWorkerEnabledByPlannedAdvance is the same on planStep's
// unfused transition: both frames bind the plan iteration 0 sealed.
func TestParkedWorkerEnabledByPlannedAdvance(t *testing.T) {
	early, planned, s := runParkedEnable(t, 2)
	if planned != 2 {
		t.Fatalf("%d of the two frames dispatched on a plan, want 2 (compiled)", planned)
	}
	if !early {
		t.Error("the waiter's stage 2 ran only after the holder returned: the planned advance past its edge did not wake the parked worker")
	}
	if s.ParkedEnables < 1 {
		t.Errorf("ParkedEnables = %d, want >= 1", s.ParkedEnables)
	}
}

// TestNoParkedEnablesOnOneWorker: with one worker nobody is parked while a
// body runs, so an x264-shaped pipeline — stage offsets growing with the
// frame index, I-frames continuing through their rows, P-frames waiting
// row by row on their predecessor, a parallel B-frame loop, a serial tail —
// keeps lazy enabling throughout.
func TestNoParkedEnablesOnOneWorker(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
	const frames, rows, endStage = 48, 8, 1 << 20
	var order []int64
	i := int64(0)
	e.PipeWhile(func() bool { return i < frames }, func(it *Iter) {
		k := i
		i++
		base := 1 + 2*k
		it.Wait(base)
		for r := int64(1); r <= rows; r++ {
			if k%4 == 0 {
				it.Continue(base + r)
			} else {
				it.Wait(base + r)
			}
		}
		it.Continue(endStage - 1)
		it.For(4, 1, func(int) {})
		it.Wait(endStage)
		order = append(order, k)
	})
	for k, v := range order {
		if v != int64(k) {
			t.Fatalf("serial tail order violated at %d: %d", k, v)
		}
	}
	if len(order) != frames {
		t.Fatalf("%d outputs, want %d", len(order), frames)
	}
	if s := e.Stats(); s.ParkedEnables != 0 {
		t.Errorf("ParkedEnables = %d on one worker, want 0", s.ParkedEnables)
	}
}
