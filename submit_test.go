package piper_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"piper"
)

// TestSubmitPublicAPI exercises the async serving surface end to end
// through the public package: Submit, Handle, SubmitPipe, SubmitPipeWait,
// cancellation, and panic capture as *piper.PanicError.
func TestSubmitPublicAPI(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(4))
	defer eng.Close()

	// A successful submission.
	var sum atomic.Int64
	i := 0
	h := eng.Submit(context.Background(), func() bool { i++; return i <= 100 }, func(it *piper.Iter) {
		v := int64(i)
		it.Continue(1)
		sum.Add(v)
	})
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := sum.Load(); got != 101*50 {
		t.Fatalf("sum = %d", got)
	}

	// SubmitPipe and SubmitPipeWait over an element source, canceled
	// mid-flight.
	submitPipes := map[string]func(context.Context, *piper.Engine, func() (int, bool), func(*piper.Iter, int)) *piper.Handle{
		"SubmitPipe":     piper.SubmitPipe[int],
		"SubmitPipeWait": piper.SubmitPipeWait[int],
	}
	for name, submit := range submitPipes {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var once atomic.Bool
		n := 0
		h2 := submit(ctx, eng, func() (int, bool) { n++; return n, true }, func(it *piper.Iter, v int) {
			if v != int(it.Index())+1 {
				t.Errorf("%s: iteration %d got element %d", name, it.Index(), v)
			}
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			it.Wait(1)
		})
		<-started
		cancel()
		if err := h2.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s Wait = %v, want context.Canceled", name, err)
		}
	}

	// Panic capture.
	j := 0
	h3 := eng.Submit(nil, func() bool { j++; return j <= 5 }, func(it *piper.Iter) {
		panic("served panic")
	})
	var pe *piper.PanicError
	if err := h3.Wait(); !errors.As(err, &pe) || pe.Value != "served panic" {
		t.Fatalf("Wait = %v, want *piper.PanicError(served panic)", err)
	}

	// Stats surface the serving counters.
	s := eng.Stats()
	if s.Submits != 4 || s.CancelRequests != 2 || s.AbortedPipelines != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSubmitClosedEnginePublic: a closed engine reports ErrEngineClosed
// through the handle rather than panicking.
func TestSubmitClosedEnginePublic(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(1))
	eng.Close()
	h := eng.Submit(context.Background(), func() bool { return true }, func(it *piper.Iter) {})
	if err := h.Wait(); !errors.Is(err, piper.ErrEngineClosed) {
		t.Fatalf("Wait = %v, want ErrEngineClosed", err)
	}
}
