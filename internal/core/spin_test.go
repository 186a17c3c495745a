package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Safety of the bounded re-sweep a thief runs before it parks (findWork):
// it must end promptly on Close and run only while another worker is
// awake.

// spinProbe counts the work scans a test engine's workers make while
// exactly parked workers are registered idle: the peers the test keeps
// parked, so the scanning worker is not registered itself. Between one
// piece of work and the next park, findWork makes exactly one such scan —
// the one at the top of its loop — unless it spins: every spin sweep is
// another, and the pre-park rescan runs registered, which raises idle past
// parked. hold, when set, is called on the third such scan in a row, which
// can therefore only be a spin sweep.
type spinProbe struct {
	eng    atomic.Pointer[Engine]
	parked int64
	scans  atomic.Int64
	hold   func(e *Engine)
}

func (p *spinProbe) hooks() *schedHooks {
	return &schedHooks{point: func(pt hookPoint) {
		e := p.eng.Load()
		if pt != hookPollWork || e == nil || e.idle.Load() != p.parked {
			return
		}
		if p.scans.Add(1) == 3 && p.hold != nil {
			p.hold(e)
		}
	}}
}

// TestCloseDuringSpin pins a worker inside the spin window — by parking it
// in the hook of a spin sweep — until Close has flipped the closed flag.
// Close must return promptly and leave no goroutine behind: the spin loop
// re-reads the flag on every sweep and falls into the ordinary
// drain-and-exit path.
func TestCloseDuringSpin(t *testing.T) {
	base := goroutineBaseline()
	inSpin := make(chan struct{})
	probe := &spinProbe{}
	var once atomic.Bool
	probe.hold = func(e *Engine) {
		if !once.CompareAndSwap(false, true) {
			return
		}
		close(inSpin)
		for end := time.Now().Add(10 * time.Second); !e.closed.Load() && time.Now().Before(end); {
			runtime.Gosched()
		}
	}
	opts := DefaultOptions()
	opts.Workers = 2
	opts.hooks = probe.hooks()
	e := NewEngine(opts)

	// The gated pipeline stays live and keeps one worker inside its body;
	// the other is free to look for work and find none. It may have parked
	// before the probe is armed, so a trivial pipeline wakes it: it scans
	// (finds the pipeline), scans again after running it (nothing), and
	// spins — the third scan in a row.
	gate := make(chan struct{})
	pinned := gatedSubmit(e, gate)
	probe.eng.Store(e)
	for try := 0; ; try++ {
		probe.scans.Store(0)
		h := e.Submit(nil, func() bool { return false }, func(*Iter) {})
		if err := h.Wait(); err != nil {
			t.Fatalf("wake-up pipeline failed: %v", err)
		}
		select {
		case <-inSpin:
		case <-time.After(50 * time.Millisecond):
			if try < 100 {
				continue
			}
			t.Fatal("no worker ever reached a spin sweep with its peer awake on a 2-worker engine")
		}
		break
	}
	close(gate)
	if err := pinned.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a worker inside the spin window")
	}
	checkGoroutinesSettle(t, base, 2)
}

// TestSingleWorkerNeverSpins: with one worker there is no peer whose
// continuation a spin could catch, so the worker goes from its scan
// straight to the park protocol. A pipeline acquired and never launched
// holds the live-pipeline gauge up throughout, so the test also fails a
// gate that spins merely because some pipeline is live (a running one
// cannot hold it here: it would occupy the only worker).
func TestSingleWorkerNeverSpins(t *testing.T) {
	assertNoSpinOnWake(t, 1)
}

// TestNoSpinWithPeersParked: a worker whose peers are all parked has
// nothing to catch either, even while a pipeline is live — such as a
// serving engine's next request, which a goroutine outside the pool
// injects while the spin would take its CPU.
func TestNoSpinWithPeersParked(t *testing.T) {
	assertNoSpinOnWake(t, 2)
}

// assertNoSpinOnWake parks every worker of a P-worker engine with a
// pipeline live but not launched, wakes one with a trivial pipeline, and
// requires it to park again without a spin sweep while its P-1 peers stay
// parked.
func assertNoSpinOnWake(t *testing.T, p int) {
	t.Helper()
	probe := &spinProbe{parked: int64(p - 1)}
	opts := DefaultOptions()
	opts.Workers = p
	opts.hooks = probe.hooks()
	e := NewEngine(opts)
	defer e.Close()
	pl := e.acquirePipeline()
	defer e.releasePipeline(pl)

	if !settles(5*time.Second, func() bool { return e.idle.Load() == int64(p) }) {
		t.Fatal("the workers never all parked")
	}
	probe.eng.Store(e)
	parks := e.Stats().Parks
	// One wake-up: a scan that finds the submitted pipeline, a scan after
	// running it that finds nothing, a park. A spin would add a scan per
	// sweep, dozens in its ten microseconds.
	h := e.Submit(nil, func() bool { return false }, func(*Iter) {})
	if err := h.Wait(); err != nil {
		t.Fatalf("wake-up pipeline failed: %v", err)
	}
	if !settles(5*time.Second, func() bool { return e.Stats().Parks > parks }) {
		t.Fatal("the woken worker never parked again")
	}
	if got := probe.scans.Load(); got > 3 {
		t.Errorf("%d unregistered work scans around one wake-up on a %d-worker engine with every peer parked, want at most 3 (no spin)", got, p)
	}
}
