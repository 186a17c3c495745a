package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// join is a join counter: n live units, and the frame, waiter, that waits
// for n to fall below limit, parked as statusWaitJoin on waitingJoin. A
// scope's join counts outstanding children under limit 1, so the owner's
// sync waits for all of them. A pipeline's counts live iterations, and its
// control frame parks on it under limit K while the loop runs (the
// throttle) and under 1 once it drains (the final sync), as the paper's
// control frame uses its one join counter for both.
type join struct {
	n, limit atomic.Int64
	waiter   *frame
}

// ready reports whether the count is below the limit.
func (j *join) ready() bool { return j.n.Load() < j.limit.Load() }

// publish is the waiter's half of a park, after it stored the limit and
// its waitingJoin: publish the parked status, then re-check (a leave that
// ran before the publish cannot have seen it). ready reports the re-check,
// took whether the waiter then took itself back; otherwise it belongs to
// whichever leave claims it, and the caller must not touch it again.
func (j *join) publish() (ready, took bool) {
	f := j.waiter
	f.status.Store(statusWaitJoin)
	f.eng.hookAt(hookParkPublish)
	ready = j.ready()
	return ready, ready && f.status.CompareAndSwap(statusWaitJoin, statusRunning)
}

// leave retires one unit of j. If the count falls below the limit and the
// waiter is parked on j, the caller claims the waiter and must deliver it.
//
// No wake is lost. The waiter stores the limit, then its parked status,
// then re-reads n; leave decrements n, then reads the limit, then the
// status. If the decrement that takes n below the limit precedes the
// re-read, the waiter sees it and takes itself back. Otherwise leave reads
// after all three steps, so it sees the limit and status of that park (or
// later ones, which exist only once someone claimed it) and claims. Only
// a live child raises n during a park (a For chunk spawning its sibling),
// so exactly one decrement takes it below the limit.
//
// The count is compared before the waiter is touched, so a leave that
// cannot release it (a scope child that is not the last) costs one load
// more than the decrement. The price is a spurious claim when a leave read
// the throttle's K just before the control frame lowered its limit to 1;
// step's re-check parks the frame again. The waitingJoin check keeps a
// leave from claiming a recycled owner frame parked on another join.
func (j *join) leave() *frame {
	if j.n.Add(-1) >= j.limit.Load() {
		return nil
	}
	f := j.waiter
	if f.status.Load() == statusWaitJoin && f.waitingJoin.Load() == j &&
		f.status.CompareAndSwap(statusWaitJoin, statusRunning) {
		return f
	}
	return nil
}

// scope is a fork-join join point: a join counting outstanding child tasks
// under limit 1, whose waiter is the iteration frame that will sync on
// them. Scopes are single-use; once the count returns to zero the scope is
// dead.
type scope struct {
	join
	// panicVal holds the first panic raised by a child task; the owner's
	// sync rethrows it in the iteration, mirroring how a spawned Cilk
	// child's exception surfaces at the sync.
	panicVal atomic.Pointer[panicBox]
}

// newScope returns an empty scope that owner syncs on.
func newScope(owner *frame) *scope {
	sc := &scope{join: join{waiter: owner}}
	sc.limit.Store(1)
	return sc
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
	if t.call != nil {
		t.call()
	} else {
		t.fn(w)
	}
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
		f.curScope = newScope(f)
	}
	sc := f.curScope
	sc.n.Add(1)
	t := f.eng.acquireClosureFrame(sc, nil, fn)
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
	sc := newScope(f)
	var split func(w *worker, lo, hi int)
	split = func(w *worker, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			lo2, hi2 := mid, hi
			sc.n.Add(1)
			t := f.eng.acquireClosureFrame(sc, func(w2 *worker) { split(w2, lo2, hi2) }, nil)
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
		// the pipeline first, under the child's own stack: the batch's
		// recover (runInlineBatch) also records, but its CAS loses to this
		// one, so the *PanicError surfaced on a Handle names the panicking
		// closure rather than this sync site.
		if pb := sc.panicVal.Load(); pb != nil {
			f.pl.recordPanicStack(pb.v, pb.stack)
			panic(pb.v)
		}
	}()
	for {
		if sc.ready() {
			return
		}
		t := f.w.deque.PopIf(func(x *frame) bool {
			return x.kind == kindClosure && x.scope == sc
		})
		if t != nil {
			f.eng.stats.closureTasks.Add(1)
			runClosureTask(t, f.w)
			f.eng.releaseClosureFrame(t)
			if sc.n.Add(-1) == 0 {
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
		f.waitingJoin.Store(&sc.join)
		f.eng.stats.scopeSuspends.Add(1)
		f.park(yParkJoin)
	}
}
