package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// scope is a fork-join join point: a counter of outstanding child tasks
// plus the iteration frame that will sync on them. Scopes are single-use;
// once the join counter returns to zero the scope is dead.
type scope struct {
	owner *frame
	join  atomic.Int64
	// panicVal holds the first panic raised by a child task; the owner's
	// sync rethrows it in the iteration, mirroring how a spawned Cilk
	// child's exception surfaces at the sync.
	panicVal atomic.Pointer[panicBox]
}

// recordPanic stores the first child panic with the panicking
// goroutine's stack, so the stack survives the rethrow at the sync.
func (sc *scope) recordPanic(v any, stack []byte) {
	sc.panicVal.CompareAndSwap(nil, &panicBox{v: v, stack: stack})
}

// runClosureTask executes a fork-join task, converting a panic into scope
// panic state so a stolen child cannot crash its worker.
func runClosureTask(t *frame, w *worker) {
	defer func() {
		if r := recover(); r != nil {
			t.scope.recordPanic(r, debug.Stack())
		}
	}()
	t.fn(w)
}

// Go spawns fn as a fork-join child of the current iteration, to be joined
// by the next Sync. fn runs exactly once, possibly on another worker; it
// must not call the Iter's pipeline-control methods.
func (it *Iter) Go(fn func()) {
	f := it.f
	if f.serial {
		if p := f.prof; p != nil {
			p.spawn(fn)
		} else {
			fn() // serial elision: a spawn is just a call
		}
		return
	}
	if f.curScope == nil {
		f.curScope = &scope{owner: f}
	}
	sc := f.curScope
	sc.join.Add(1)
	t := f.eng.acquireClosureFrame(sc, func(*worker) { fn() })
	f.w.pushWork(t)
}

// Sync joins all children spawned with Go since the previous Sync. Like
// cilk_sync, the caller first executes its own unstolen children from the
// bottom of its deque; only if children were stolen and are still running
// does the iteration suspend, to be resumed by the last returning child.
func (it *Iter) Sync() {
	f := it.f
	if p := f.prof; p != nil {
		p.sync()
	}
	sc := f.curScope
	if sc == nil {
		return
	}
	f.curScope = nil
	f.syncScope(sc)
}

// For executes body(i) for every i in [0, n) with fork-join parallelism,
// the cilk_for analogue. grain bounds the size of a leaf chunk; pass 0 for
// an automatic grain.
func (it *Iter) For(n, grain int, body func(int)) {
	f := it.f
	if n <= 0 {
		return
	}
	if f.serial {
		if p := f.prof; p != nil {
			p.forLoop(n, grain, body)
			return
		}
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	grain = f.eng.forGrain(n, grain)
	sc := &scope{owner: f}
	var split func(w *worker, lo, hi int)
	split = func(w *worker, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			lo2, hi2 := mid, hi
			sc.join.Add(1)
			t := f.eng.acquireClosureFrame(sc, func(w2 *worker) { split(w2, lo2, hi2) })
			w.pushWork(t)
			hi = mid
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
	split(f.w, 0, n)
	f.syncScope(sc)
}

// forGrain is For's leaf-chunk bound: grain if positive, else n/(8P)+1.
func (e *Engine) forGrain(n, grain int) int {
	if grain <= 0 {
		grain = n/(8*e.opts.Workers) + 1
	}
	return grain
}

// syncScope drains the scope: pop and run own children still on the deque
// (inline, child-first), then park until stolen children return. During
// the serial stage-0 prefix the iteration may not suspend (the control
// frame is blocked on it), so it spin-helps instead.
func (f *frame) syncScope(sc *scope) {
	defer func() {
		// Rethrow the first child panic at the sync point. Record it into
		// the pipeline first, under the child's own stack: the recover up
		// in runBody also records, but its CAS loses to this one, so the
		// *PanicError surfaced on a Handle names the panicking closure
		// rather than this sync site.
		if pb := sc.panicVal.Load(); pb != nil {
			f.pl.recordPanicStack(pb.v, pb.stack)
			panic(pb.v)
		}
	}()
	for {
		if sc.join.Load() == 0 {
			return
		}
		t := f.w.deque.PopIf(func(x *frame) bool {
			return x.kind == kindClosure && x.scope == sc
		})
		if t != nil {
			f.eng.stats.closureTasks.Add(1)
			runClosureTask(t, f.w)
			f.eng.releaseClosureFrame(t)
			if sc.join.Add(-1) == 0 {
				break
			}
			continue
		}
		if f.inStage0 {
			// Children were stolen; busy-wait rather than suspend so the
			// pipe_while control frame (which is driving us) never
			// observes a parked stage 0.
			runtime.Gosched()
			continue
		}
		if f.inline {
			// Stolen children (or a nested pipeline) are still running:
			// the iteration's first block.
			f.promote()
		}
		// The driving worker publishes the park and re-checks the join
		// counter (publishPark); the loop re-checks it after every wake.
		f.waitingScope.Store(sc)
		f.eng.stats.scopeSuspends.Add(1)
		f.park(yParkScope)
	}
}

// scopeUnitDone retires one child of sc. If that was the last child and
// the owner iteration is parked on sc, the caller claims it; the returned
// frame (if any) must be delivered to a worker.
func scopeUnitDone(sc *scope) *frame {
	if sc.join.Add(-1) != 0 {
		return nil
	}
	o := sc.owner
	if o.status.Load() == statusWaitScope && o.waitingScope.Load() == sc {
		if o.status.CompareAndSwap(statusWaitScope, statusRunning) {
			return o
		}
	}
	return nil
}
