package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"piper/internal/workload"
)

// Wake rules of the control frame's release (releaseControl): a batched
// pipeline's release wakes nobody, because its releasing worker is back
// at its deque within one cheap iteration, long before a wake could land;
// a claim-1 release still wakes a parked peer, which a coarse pipeline
// needs for its second worker. Both use the cost clock, so the claims are
// the same on any host and under the race detector.

// TestBatchedReleaseWakesNobody: a cheap SPS pipeline of 20 000
// iterations on two workers climbs to maxClaim within seven opens and runs
// about 300 batches, each ending in a release of the control frame. When
// every release signalled, the peer was woken for about every second one
// on a 2-vCPU host, only to spin and park again; now the pipeline's own
// wakes are a handful at most (its launch, and the ramp's claim-1
// release).
func TestBatchedReleaseWakesNobody(t *testing.T) {
	var clk costClock
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 2
		o.hooks = withClock(nil, clk.ns.Load)
	})
	const n = 20000
	pre := e.Stats()
	var sink atomic.Uint64
	rep := runSPS(t, e, n, func(int64) {
		clk.spend(200 * time.Nanosecond)
		sink.Add(workload.Spin(256))
	})
	s := e.Stats()
	if rep.FinalGrain != maxClaim {
		t.Fatalf("FinalGrain = %d, want %d (the pipeline must batch)", rep.FinalGrain, maxClaim)
	}
	if wakes := s.Wakes - pre.Wakes; wakes > 8 {
		t.Errorf("Wakes = %d over %d batched iterations (about %d batches), want at most 8",
			wakes, n, n/maxClaim)
	}
}

// TestCoarseReleaseWakesParkedPeer: a pipeline at claim 1 (bodies declared
// at 20 µs) launched while both workers are parked wakes one by its launch;
// the other stays parked until a release wakes it. Each body holds its
// worker (bounded) until the next iteration has started, which only a
// steal can do, so without that wake the pipeline runs on one worker with
// no steal at all.
func TestCoarseReleaseWakesParkedPeer(t *testing.T) {
	var clk costClock
	e := newEngineOpts(t, func(o *Options) {
		o.Workers = 2
		o.hooks = withClock(nil, clk.ns.Load)
	})
	if !settles(5*time.Second, func() bool { return e.idle.Load() == 2 }) {
		t.Fatal("the workers never both parked")
	}
	const n = 200
	pre := e.Stats()
	var started atomic.Int64
	i := 0
	rep := e.RunPipeline(0, func() bool { i++; return i <= n }, func(it *Iter) {
		started.Add(1)
		clk.spend(20 * time.Microsecond)
		it.Continue(1)
		for end := nowNs() + int64(2*time.Millisecond); started.Load() <= it.Index()+1 && it.Index() < n-1 && nowNs() < end; {
			runtime.Gosched()
		}
		it.Wait(2)
	})
	s := e.Stats()
	if rep.FinalGrain != 1 {
		t.Fatalf("FinalGrain = %d, want 1 for bodies declared at 20 µs", rep.FinalGrain)
	}
	if wakes, steals := s.Wakes-pre.Wakes, s.Steals-pre.Steals; wakes < 2 || steals == 0 {
		t.Errorf("Wakes = %d, Steals = %d, want at least 2 wakes (the launch's and a release's) and a steal", wakes, steals)
	}
	checkEngineDrained(t, e)
}
