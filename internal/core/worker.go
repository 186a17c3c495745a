package core

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"piper/internal/deque"
	"piper/internal/workload"
)

// --- worker ---------------------------------------------------------------

type worker struct {
	eng    *Engine
	id     int
	deque  *deque.Deque[frame]
	parkCh chan struct{}
	rng    *workload.RNG
	// r is the runner w enters for its next control segment; nil after a
	// parked body left with it, until w takes a spare (see runner).
	// Worker-local.
	r *runner

	// assigned is loaded by every thief's sweep (the check-right on a
	// victim's running iteration) and stored twice per executed segment by
	// the owner; padding keeps those stores off the lines holding the
	// read-mostly fields above and the trace state below.
	_        cacheLinePad
	assigned atomic.Pointer[frame]
	_        cacheLinePad

	// events is the worker's trace buffer (see trace.go).
	eventsMu sync.Mutex
	events   []traceEvent
}

// loop is worker w's goroutine, for the engine's lifetime: it drives
// frames until the engine closes.
func (w *worker) loop() {
	for {
		f := w.findWork()
		if f == nil {
			w.eng.wg.Done()
			return // engine closed
		}
		w.execute(f)
	}
}

// pushWork makes f stealable on w's deque and wakes a parked worker for
// it (a batched control-frame release skips the wake: releaseControl).
// Safe to call from the worker's goroutine or from its current runner.
func (w *worker) pushWork(f *frame) {
	w.deque.Push(f)
	w.eng.signal()
}

// execute drives frames until the worker runs out of local work, following
// PIPER's assigned-vertex rules at frame granularity. A closure runs on
// the worker's goroutine. A control frame is stepped on w's runner, and a
// parked iteration the worker claimed is resumed on the runner it keeps;
// either way the worker switches in with next() and gets back the message
// the segment ended with.
func (w *worker) execute(f *frame) {
	for f != nil {
		traceStart := int64(0)
		tracing := w.eng.tracing.Load()
		var traceKind frameKind
		var traceIndex int64
		if tracing {
			// Snapshot before driving: after a suspend the frame may
			// belong to a waker (and, pooled, even be recycled), so it
			// must not be dereferenced afterwards.
			traceStart, traceKind, traceIndex = nowNs(), f.kind, f.index
		}
		if f.kind == kindClosure {
			w.eng.stats.closureTasks.Add(1)
			runClosureTask(f, w)
			w.traceSegment(tracing, traceKind, traceIndex, traceStart)
			f = w.afterClosure(f)
			continue
		}
		w.assigned.Store(f)
		var r *runner
		if f.kind == kindControl {
			if w.r == nil {
				w.r = w.eng.spareRunner()
			}
			r = w.r
			r.w, r.cf = w, f
		} else {
			r = f.r
			f.w = w
			w.eng.stats.segments.Add(1)
		}
		msg, _ := r.next()
		w.assigned.Store(nil)
		w.traceSegment(tracing, traceKind, traceIndex, traceStart)
		switch msg.kind {
		case yDone:
			// Only a control segment ends the pipeline, so f is its
			// control frame.
			f = w.afterDone(f)
		case ySuspend:
			// The control frame parked (throttled or syncing): it may
			// already belong to a waker; do not touch it again.
			f = w.deque.Pop()
		case yIterDone:
			// An iteration finished after releasing the control frame,
			// which is on a deque or already stepping elsewhere. If it had
			// blocked, r is the runner it kept, free again now.
			if r != w.r {
				w.returnRunner(r)
			}
			f = w.afterDone(msg.child)
		default: // yParkCross, yParkJoin
			if r == w.r {
				w.r = nil // the parked body keeps the runner
			}
			if c := msg.child; c.publishPark(msg.kind) {
				f = c // the condition held already: resume at once
			} else {
				// Runner switches bypass the Go scheduler, so a worker
				// that only steps, parks and resumes bodies would keep
				// the GC's background mark worker (and any other runnable
				// goroutine) off its P until the 10 ms preemption tick.
				// A park is where a goroutine used to block, so yield the
				// P here: without it dedup-batch's GC marking ran ~5x
				// longer and its peak heap grew ~15 %.
				runtime.Gosched()
				f = w.afterSuspend(c)
			}
		}
	}
}

// afterSuspend applies lazy enabling when an iteration parks: check right
// on the suspended iteration, then fall back to the local deque.
func (w *worker) afterSuspend(f *frame) *frame {
	if nxt := w.eng.tryWakeRight(f); nxt != nil {
		w.eng.stats.lazyEnables.Add(1)
		return nxt
	}
	return w.deque.Pop()
}

// afterDone retires a finished frame and selects the next assigned frame:
// check right, check parent (throttle release / final sync), tail swap.
func (w *worker) afterDone(f *frame) *frame {
	switch f.kind {
	case kindIter:
		right := w.eng.tryWakeRight(f)
		if right != nil {
			w.eng.stats.lazyEnables.Add(1)
		}
		ctrl := f.pl.live.leave()
		f.next.Store(nil)
		f.unref() // drop the scheduler's reference; f may now recycle
		switch {
		case right != nil && ctrl != nil:
			if w.eng.opts.TailSwap {
				// Tail swap: stay on the consecutive iteration for
				// locality; the enabled control frame goes to the deque
				// where it is immediately stealable (Lemma 4).
				w.eng.stats.tailSwaps.Add(1)
				w.pushWork(ctrl)
				return right
			}
			w.pushWork(right)
			return ctrl
		case right != nil:
			return right
		case ctrl != nil:
			return ctrl
		}
	case kindControl:
		if sc := f.pl.parent; sc == nil {
			w.eng.finishTopLevel(f.pl)
		} else if owner := sc.leave(); owner != nil {
			return owner
		}
	}
	return w.deque.Pop()
}

// afterClosure retires a fork-join task.
func (w *worker) afterClosure(f *frame) *frame {
	sc := f.scope
	w.eng.releaseClosureFrame(f)
	if owner := sc.leave(); owner != nil {
		return owner
	}
	return w.deque.Pop()
}

// stealFrom raids one victim: first the lazy-enabling check-right on the
// victim's assigned iteration (resuming implicitly enabled work "on the
// victim's deque"), then the deque proper.
func (w *worker) stealFrom(v *worker) *frame {
	if a := v.assigned.Load(); a != nil && a.kind == kindIter {
		if nxt := w.eng.tryWakeRight(a); nxt != nil {
			w.eng.stats.thiefEnables.Add(1)
			return nxt
		}
	}
	if f := v.deque.Steal(); f != nil {
		w.eng.stats.steals.Add(1)
		return f
	}
	return nil
}

// pollWork scans every work source once: the local deque, the engine's
// root queue, then a steal sweep visiting every victim exactly once from a
// random starting offset. Full coverage (rather than the classic random
// probing) is what lets parking be event-driven: the pre-park rescan in
// findWork must be deterministic, because no polling timer will paper
// over a missed victim.
func (w *worker) pollWork() *frame {
	e := w.eng
	if h := e.hooks; h != nil {
		if h.point != nil {
			h.point(hookPollWork)
		}
		if h.stealFirst != nil && h.stealFirst() {
			// Perturbation: raid the other workers' deques before its own,
			// scrambling the LIFO owner order the scheduler prefers.
			if f := w.stealSweep(); f != nil {
				return f
			}
		}
	}
	if f := w.deque.Pop(); f != nil {
		return f
	}
	if f := e.popRoot(); f != nil {
		return f
	}
	return w.stealSweep()
}

// stealSweep visits every victim exactly once from a random starting
// offset, returning the first frame raided.
func (w *worker) stealSweep() *frame {
	e := w.eng
	if n := len(e.workers); n > 1 {
		start := int(w.rng.Intn(n))
		for round := 0; round < n; round++ {
			v := e.workers[(start+round)%n]
			if v == w {
				continue
			}
			if f := w.stealFrom(v); f != nil {
				return f
			}
			e.stats.failedSteals.Add(1)
		}
	}
	return nil
}

// spinBeforeParkNs bounds the re-sweep a thief runs before it parks. At
// claim 1 a pipeline's control frame is off the deques only while the next
// iteration runs its stage 0 — a few microseconds — whereas a park costs a
// futex sleep, a ~50 µs wake, and on a virtualized host a stall of that
// order for the worker that issues the wake: a thief that swept inside the
// window would come back to find the owner has taken the continuation
// again (which is also why a batched release wakes nobody; see
// releaseControl). The bound stays at the steal and stage-0 time scale on
// purpose: spinning for a wake's length takes CPUs from whatever else the
// process runs (20 µs cost the serve-open benchmark a fifth of its
// throughput, 5 and 10 µs nothing; on dedup 10 µs leaves a quarter of the
// parks 5 µs does).
const spinBeforeParkNs = 10000

// findWork implements the thief loop: scan all work sources, re-sweep for
// spinBeforeParkNs while another worker is awake and so could be about to
// release a continuation, then park until a signal delivers a wake token.
// A worker whose peers are all parked has nothing to catch: its spin would
// only take a CPU from goroutines that are not workers, such as the
// callers that inject the next pipeline. Parking is precise — a worker
// registers in the idle set and re-scans before blocking, pairing with
// signal's publish-work-then-claim order, so no wakeup is lost and no
// polling timer is needed; the spin runs wholly before registration and
// changes none of that.
func (w *worker) findWork() *frame {
	e := w.eng
	peers := int64(len(e.workers) - 1)
	for {
		if f := w.pollWork(); f != nil {
			return f
		}
		for end := nowNs() + spinBeforeParkNs; e.idle.Load() < peers && !e.closed.Load() && nowNs() < end; {
			if f := w.pollWork(); f != nil {
				return f
			}
		}
		if e.closed.Load() {
			// Drain before exiting: a launch that won the submitMu race
			// against Close may have published work this iteration's scan
			// predated. This scan is ordered after the closed flag, and
			// the flag after every successful inject, so nothing queued
			// is ever stranded.
			if f := w.pollWork(); f != nil {
				return f
			}
			return nil
		}
		e.registerIdle(w)
		if f := w.pollWork(); f != nil {
			e.cancelIdle(w)
			return f
		}
		// Pair with Close's wake sweep: if registration raced past the
		// sweep, this load (ordered after registerIdle) sees the flag and
		// self-cancels; if it ran before the flag flipped, the sweep sees
		// the registration and delivers a wake token. Either way no
		// worker stays parked across Close.
		if e.closed.Load() {
			e.cancelIdle(w)
			continue // final drain scan at the loop top, then exit
		}
		e.stats.parks.Add(1)
		// A parked worker is always released by a wake token, from signal
		// or from Close's sweep.
		<-w.parkCh
	}
}

// --- runners --------------------------------------------------------------

// runner is a pooled coroutine that control segments and the iteration
// bodies they start run on: an iter.Pull coroutine looping over the
// segments it is handed. A worker enters it with next() to step a control
// frame; the step's message is the runner's yield, after which the runner
// is idle again. A body that blocks yields from deep inside the segment
// instead (frame.park): its frame keeps the runner, and the worker takes a
// spare for its next segment. Whichever worker claims the parked frame
// later resumes it with the same next(); when the body finishes the
// segment ends as usual, and the runner goes to that worker.
//
// A runner is entered by one worker at a time, though not always the
// same one: a frame's parked status is published only after its runner
// has switched out (publishPark), and the status CAS lets exactly one
// waker claim it. A runner is always a worker's (worker.r), held by a
// frame that blocked and has not retired (frame.r), or on the engine's
// spare stack, so the runners made are at most P plus the peak of such
// frames; Close stops them all.
type runner struct {
	next  func() (yieldMsg, bool)
	stop  func()
	yield func(yieldMsg) bool
	// w and cf are the control segment to run: set by the entering worker
	// before next(), read by loop.
	w  *worker
	cf *frame
}

// loop is the runner's coroutine body. stop makes yield report false at
// the idle point, which ends it.
func (r *runner) loop(yield func(yieldMsg) bool) {
	r.yield = yield
	for yield(r.cf.pl.step(r.cf, r)) {
	}
}

// spareRunner takes a runner from the spare stack, or makes one.
func (e *Engine) spareRunner() *runner {
	e.runnerMu.Lock()
	if n := len(e.spareRunners); n > 0 {
		r := e.spareRunners[n-1]
		e.spareRunners[n-1] = nil
		e.spareRunners = e.spareRunners[:n-1]
		e.runnerMu.Unlock()
		return r
	}
	e.runnerMu.Unlock()
	e.runnersCreated.Add(1)
	r := &runner{}
	//piper:allow-go stopped at Close: every runner is a worker's or a spare once all frames have retired, and Close stops those after wg.Wait
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// returnRunner takes back the runner of a frame whose resumed body
// finished: w keeps it if a parked body left with w's own, otherwise it
// goes on the spare stack.
func (w *worker) returnRunner(r *runner) {
	if w.r == nil {
		w.r = r
		return
	}
	e := w.eng
	e.runnerMu.Lock()
	e.spareRunners = append(e.spareRunners, r)
	e.runnerMu.Unlock()
}
