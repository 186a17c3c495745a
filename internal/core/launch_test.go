package core

import (
	"errors"
	"testing"
)

// A blocking launch (PipeWhile, RunPipeline) completes like a Submit:
// finishTopLevel fills a Handle on the worker that retires the pipeline,
// releasing the pipeline before it wakes the caller, and the caller waits
// on the Handle. These tests pin what the caller sees of that path.

// TestBlockingLaunchRepanicsOriginal: a body panic reaches the PipeWhile
// caller as the value the body panicked with, not as the *PanicError a
// Handle reports. The pipeline is released by the time PipeWhile returns
// or panics, counts as aborted, and does not count as a Submit.
func TestBlockingLaunchRepanicsOriginal(t *testing.T) {
	e := newTestEngine(t, 2)
	type boom struct{ round int }
	const rounds = 50
	for round := 0; round < rounds; round++ {
		v := func() (v any) {
			defer func() { v = recover() }()
			i := 0
			e.PipeWhile(func() bool { return i < 8 }, func(it *Iter) {
				i++
				it.Continue(1)
				if it.Index() == 5 {
					panic(boom{round})
				}
				it.Wait(2)
			})
			return nil
		}()
		if v != (boom{round}) {
			t.Fatalf("round %d: PipeWhile panicked with %#v, want boom{%d}", round, v, round)
		}
		if live := e.Stats().LivePipelines; live != 0 {
			t.Fatalf("round %d: %d live pipelines after PipeWhile panicked", round, live)
		}
	}
	s := e.Stats()
	if s.Submits != 0 || s.AbortedPipelines != rounds {
		t.Errorf("Submits = %d, AbortedPipelines = %d; want 0 and %d", s.Submits, s.AbortedPipelines, rounds)
	}
	checkEngineDrained(t, e)
}

// TestBlockingLaunchReleasesBeforeReturn: LivePipelines reads 0 the
// moment a blocking launch returns, with no settling, and a blocking
// launch never counts in Stats.Submits.
func TestBlockingLaunchReleasesBeforeReturn(t *testing.T) {
	e := newTestEngine(t, 2)
	for round := 0; round < 200; round++ {
		i, n := 0, round%4
		rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
			i++
			it.Wait(1)
		})
		if rep.Iterations != int64(n) {
			t.Fatalf("round %d: %d iterations, want %d", round, rep.Iterations, n)
		}
		if live := e.Stats().LivePipelines; live != 0 {
			t.Fatalf("round %d: %d live pipelines when RunPipeline returned", round, live)
		}
	}
	if s := e.Stats(); s.Submits != 0 || s.Pipelines != 200 || s.AbortedPipelines != 0 {
		t.Errorf("Submits = %d, Pipelines = %d, AbortedPipelines = %d; want 0, 200, 0",
			s.Submits, s.Pipelines, s.AbortedPipelines)
	}
	checkEngineDrained(t, e)
}

// TestBlockingLaunchClosedEngine: PipeWhile on a closed engine panics with
// an error matching ErrEngineClosed and leaves no pipeline behind.
func TestBlockingLaunchClosedEngine(t *testing.T) {
	e := NewEngine(DefaultOptions())
	e.Close()
	v := func() (v any) {
		defer func() { v = recover() }()
		e.PipeWhile(func() bool { return false }, func(*Iter) {})
		return nil
	}()
	if err, ok := v.(error); !ok || !errors.Is(err, ErrEngineClosed) {
		t.Errorf("PipeWhile on a closed engine panicked with %#v", v)
	}
	if s := e.Stats(); s.LivePipelines != 0 || s.LiveIterFrames != 0 || s.Pipelines != 0 || s.Submits != 0 {
		t.Errorf("closed-engine launch left state: %d live pipelines, %d live iteration frames, %d pipelines, %d submits",
			s.LivePipelines, s.LiveIterFrames, s.Pipelines, s.Submits)
	}
}
