package core

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// pipeline is the runtime state of one pipe_while loop.
type pipeline struct {
	eng  *Engine
	cond func() bool
	body func(it *Iter)

	// K is the throttling limit: at most K iteration frames are live.
	// It is atomic because the adaptive-throttling policy (an extension
	// prompted by the paper's Section 11 discussion) lets the control
	// frame adjust it while other workers read it at iteration return.
	K atomic.Int64
	// kMin/kMax bound the adaptive window; kMin == kMax disables
	// adaptation.
	kMin, kMax int64
	// join counts live (started, unreturned) iteration frames, plus the
	// paper's control-frame join-counter role.
	join atomic.Int64

	control *frame

	// parent is the scope a nested pipe_while completes into; nil for a
	// top-level pipeline, which signals done instead.
	parent *scope
	done   chan struct{}

	// sub is the Handle of an asynchronous submission (nil for blocking
	// PipeWhile); completion is harvested into it by finishTopLevel.
	sub *Handle
	// admitted marks a submission holding an admission slot, released by
	// finishTopLevel when the pipeline completes; tenant is the admission
	// class index the slot is charged to (see admission.go).
	admitted bool
	tenant   int
	// abort points at the submission's cancellation word, shared by every
	// pipeline nested under the same Submit; nil when the pipeline cannot
	// be canceled. The abortState is owned by the Handle and outlives this
	// (pooled) pipeline.
	abort *abortState

	// depth is the pipe-nesting depth D of this loop (1 = top level).
	depth int

	nextIndex int64

	// Control-frame state machine (stepped on the runner of whichever
	// worker holds the control frame; serialized by frame ownership).
	phase    int8
	prevIter *frame

	// Batched inline execution (see frame.runInlineBatch). All five words
	// are control-frame state like phase: serialized by frame ownership,
	// so the adaptive policy needs no atomics. grain is the current run
	// length G a batch claims; openNs and openIndex are the clock and
	// nextIndex at the previous batch open, from which the next open
	// derives the measured per-iteration cost (see openBatch).
	grain      int64
	grainMax   int64
	grainFixed bool
	openNs     int64
	openIndex  int64

	// Work/span instrumentation (see instrument.go).
	instrument bool
	workNs     atomic.Int64
	spanNs     atomic.Int64

	panicVal atomic.Pointer[panicBox]

	// maxLive tracks the observed maximum of join for the space
	// experiments (Theorem 13): live iteration frames ≈ iteration stack
	// space.
	maxLive atomic.Int64
}

// Control phases.
const (
	phaseLoop  int8 = iota // spawning iterations
	phaseDrain             // loop condition exhausted; syncing children
)

// panicBox carries a captured panic value plus the stack of the
// panicking goroutine (populated on the recovery paths that have it).
type panicBox struct {
	v     any
	stack []byte
}

// recordPanic stores the first panic. CAS (rather than sync.Once) keeps
// the pipeline reusable through the frame pool.
func (pl *pipeline) recordPanic(v any) { pl.recordPanicStack(v, nil) }

// recordPanicStack is recordPanic with the panicking goroutine's stack.
func (pl *pipeline) recordPanicStack(v any, stack []byte) {
	pl.panicVal.CompareAndSwap(nil, &panicBox{v: v, stack: stack})
}

func (pl *pipeline) panicked() bool { return pl.panicVal.Load() != nil }

// abortRequested reports whether the submission this pipeline belongs to
// has been canceled. Costs a nil check for non-cancelable pipelines.
func (pl *pipeline) abortRequested() bool {
	a := pl.abort
	return a != nil && a.requested()
}

// Iter is the per-iteration handle passed to the pipeline body. Its
// methods must be called from the body's goroutine only.
type Iter struct {
	f *frame
}

// Index reports the iteration number, starting at 0.
func (it *Iter) Index() int64 { return it.f.index }

// Stage reports the stage number of the node currently executing.
func (it *Iter) Stage() int64 { return it.f.stage.Load() }

// Engine returns the engine executing this iteration, for spawning nested
// pipelines.
func (it *Iter) Engine() *Engine { return it.f.eng }

func (it *Iter) checkStageArg(j int64) {
	if cur := it.f.stage.Load(); j <= cur {
		panic(fmt.Sprintf("piper: stage arguments must strictly increase: at stage %d, requested %d", cur, j))
	}
	if j >= stageDone {
		panic("piper: stage number too large")
	}
}

// Wait implements pipe_wait(j): end the current node and begin node
// (i, j) once node (i-1, j) of the previous iteration has completed.
func (it *Iter) Wait(j int64) {
	f := it.f
	it.checkStageArg(j)
	if f.serial {
		f.serialAdvance(j)
		return
	}
	f.abortCheck()
	f.instrEndNode(j)
	f.advance(j)
	if !f.crossSatisfied(j) {
		if f.inline {
			// The edge is (probably) unsatisfied: the iteration's first
			// block. The park's publish-then-recheck re-validates the
			// edge, so one that resolved meanwhile is resumed at once.
			f.promote()
		}
		f.parkOnCross(j)
		// A park can outlast a cancel request (the wake arrives when
		// the aborting predecessor publishes stageDone); do not start
		// stage j's user code in that case.
		f.abortCheck()
	} else if f.inStage0 {
		// A frame that blocked is never in stage 0: promotion releases
		// the control frame first.
		f.leaveStage0Inline()
	}
	f.instrBeginNode(true, j)
}

// Continue implements pipe_continue(j): end the current node and begin
// node (i, j) immediately.
func (it *Iter) Continue(j int64) {
	f := it.f
	it.checkStageArg(j)
	if f.serial {
		f.serialAdvance(j)
		return
	}
	f.abortCheck()
	f.instrEndNode(j)
	f.advance(j)
	if f.inStage0 {
		f.leaveStage0Inline()
	}
	f.instrBeginNode(false, j)
}

// WaitNext is Wait with the implicit stage argument j+1.
func (it *Iter) WaitNext() { it.Wait(it.Stage() + 1) } //piper:allow-dynamic-stage Stage()+1 is monotone by construction

// ContinueNext is Continue with the implicit stage argument j+1.
func (it *Iter) ContinueNext() { it.Continue(it.Stage() + 1) } //piper:allow-dynamic-stage Stage()+1 is monotone by construction

// parkOnCross parks the iteration on the cross edge into stage j; the
// driving worker publishes the waiting state and re-checks the edge (see
// publishPark). Wakes can be spurious — a check-right that loaded the
// waitStage of an older park of this frame may claim a newer park whose
// edge is still unresolved (an ABA on the status word) — so the condition
// is re-validated after every wake and the frame re-parks if needed, the
// standard condition-variable discipline.
func (f *frame) parkOnCross(j int64) {
	for {
		f.waitStage.Store(j)
		f.eng.stats.crossSuspends.Add(1)
		f.park(yParkCross)
		if f.crossSatisfiedSlow(j) {
			return
		}
	}
}

// newIter acquires the frame for the next iteration and links it into the
// neighbour chain. The reference the pipeline's prevIter slot held on
// prev transfers to the new frame's prev pointer (see pool.go).
func (pl *pipeline) newIter(prev *frame) *frame {
	f := pl.eng.acquireIterFrame()
	f.pl = pl
	f.index = pl.nextIndex
	f.instrOn = pl.instrument
	f.prev = prev
	pl.nextIndex++
	if prev != nil {
		prev.next.Store(f)
	}
	pl.eng.stats.iterations.Add(1)
	return f
}

// step executes the pipe_while control frame as a state machine on runner
// r, entered by worker r.w: it evaluates the loop condition, drives each
// iteration's serial stage-0 prefix in order, spawns the remainder of the
// iteration, enforces the throttling limit, and finally syncs on all
// outstanding iterations.
//
// step returns ySuspend when the control frame parked (throttled or
// syncing; a waker will redeliver it, possibly while this call is still
// unwinding — the caller must not touch the frame after a suspend), yDone
// at pipeline completion, and yIterDone{child} when an iteration finished
// after releasing the control frame (the caller retires the child and
// must not touch the control frame). If that iteration blocked on the
// way, step returns on the runner of the worker that resumed it last, and
// that worker receives the message.
func (pl *pipeline) step(cf *frame, r *runner) yieldMsg {
	w := r.w
	cf.w = w
	pl.eng.stats.segments.Add(1)
	for {
		if pl.phase == phaseLoop {
			if pl.panicked() || pl.abortRequested() {
				// Abort or panic: stop spawning. The loop condition is not
				// evaluated again (it may consume input), and phaseDrain
				// syncs on the live iterations, which unwind at their next
				// stage boundary.
				pl.phase = phaseDrain
				continue
			}
			// Throttle before testing the loop condition: the condition
			// is part of the next iteration's serial stage 0, and its
			// evaluation may consume an input element, so it must run
			// exactly once per started iteration.
			if n, k := pl.join.Load(), pl.K.Load(); n >= k {
				// Adaptive throttling: if the machine is starving (workers
				// parked or spinning) while this pipeline is window-bound, trade
				// space for parallelism, up to kMax. This is the
				// Section 11 trade-off made explicit: on the Figure 10
				// pathology a Θ(P) window caps speedup near 3, and any
				// scheduler that does better must hold more iterations
				// live.
				if k < pl.kMax && pl.eng.idle.Load()+int64(pl.eng.spinners.Load()) > 0 {
					pl.K.Store(minInt64(2*k, pl.kMax))
					pl.eng.stats.throttleGrows.Add(1)
					continue
				}
				cf.status.Store(statusThrottled)
				if pl.join.Load() < pl.K.Load() {
					if cf.status.CompareAndSwap(statusThrottled, statusRunning) {
						continue // unparked ourselves
					}
					// A waker claimed the frame and is delivering it; it
					// is no longer ours.
					return yieldMsg{kind: ySuspend}
				}
				pl.eng.stats.throttleParks.Add(1)
				return yieldMsg{kind: ySuspend}
			}
			if !pl.safeCond() {
				pl.phase = phaseDrain
				continue
			}
			live := pl.join.Add(1)
			for {
				m := pl.maxLive.Load()
				if live <= m || pl.maxLive.CompareAndSwap(m, live) {
					break
				}
			}
			// Adaptive shrink: reclaim space when the window is mostly
			// unused (sampled; the control frame is the only writer).
			if k := pl.K.Load(); k > pl.kMin && pl.nextIndex%32 == 31 && live < k/4 {
				pl.K.Store(maxInt64(k/2, pl.kMin))
				pl.eng.stats.throttleShrinks.Add(1)
			}

			pl.eng.hookAt(hookIteration)
			it := pl.newIter(pl.prevIter)
			pl.prevIter = it
			// Drive the iteration from here; stage 0 runs serially in
			// iteration order, exactly as the pipe_while transformation in
			// the paper prescribes. Claim a batch of up to openBatch()
			// consecutive iterations and run their bodies as direct calls
			// on this runner, all through the one frame just acquired.
			// The batch's final slot releases this control frame to the
			// deque at its stage-0 exit (thieves pick it up to run the next
			// iteration's stage 0), and any slot that must block performs
			// that release itself before it parks — after either event this
			// step invocation no longer owns the pipeline and must unwind
			// through the returned message without touching it.
			tracing := pl.eng.tracing.Load()
			var traceStart int64
			if tracing {
				traceStart = nowNs()
			}
			claim := pl.openBatch()
			if h := pl.eng.hooks; h != nil && h.claim != nil {
				h.claim(claim)
			}
			if !it.runInlineBatch(r, claim) {
				if it.inline {
					// A blocked iteration's resumed segments are traced
					// by the workers that resumed it.
					w.traceSegment(tracing, kindIter, it.index, traceStart)
				}
				return yieldMsg{kind: yIterDone, child: it}
			}
			// The batch ran to completion without releasing the control
			// frame (its final body never left stage 0, or the loop
			// exhausted/aborted mid-claim): retire the frame here. The
			// chain slot (pl.prevIter) keeps its reference until the next
			// iteration links past it.
			w.traceSegment(tracing, kindIter, it.index, traceStart)
			pl.join.Add(-1)
			it.unref()
			continue
		}
		// phaseDrain — cilk_sync: wait for outstanding iterations.
		if pl.join.Load() > 0 {
			cf.status.Store(statusSyncing)
			if pl.join.Load() == 0 {
				if cf.status.CompareAndSwap(statusSyncing, statusRunning) {
					pl.releaseChain()
					return yieldMsg{kind: yDone}
				}
				return yieldMsg{kind: ySuspend}
			}
			return yieldMsg{kind: ySuspend}
		}
		pl.releaseChain()
		return yieldMsg{kind: yDone}
	}
}

// coarseIterNs is the per-iteration cost above which a pipeline runs claim
// 1. Batching amortizes the ~150 ns per-iteration protocol, which is under
// 4 % of a body this long, while a batch serializes its slots on one
// worker and keeps the pipe_while continuation off the deques for all but
// the last of them. Measured at P=2 on SPS bodies (README "Grain
// control"): below ~4 µs a full batch beats the unbatched protocol, above
// it the stolen continuation does, and every fixed grain in between loses
// to both, so the policy has no middle setting.
const coarseIterNs = 4000

// openBatch returns the claim length for the next inline batch. Called by
// step with control-frame ownership, once per batch, after newIter. The
// claim is a function of measured cost alone: one clock read per open, and
// the time since the previous open divided by the iterations started in
// between is what one iteration cost. Above coarseIterNs the claim drops
// to 1 — the continuation is released at every stage-0 exit, the paper's
// protocol — and otherwise it doubles up to grainMax, from 1 on a fresh
// pipeline. A one-slot sample taken while an older iteration is still live
// (join > 1: the continuation was stolen, or its iteration suspended)
// covers only the time the control frame took to change hands, so it can
// prove a body coarse but not cheap, and the claim stays where it is; from
// two slots up the window holds every slot but the last in full. A cheap
// body therefore reaches the default grainMax of 64 within seven opens,
// with no seed. Instrumented and traced runs pin the claim to 1: per-node
// work/span accounting chains critical paths through real predecessor
// frames, and trace consumers expect one segment per iteration.
func (pl *pipeline) openBatch() int64 {
	if pl.instrument || pl.eng.tracing.Load() {
		return 1
	}
	g := pl.grain
	if pl.grainFixed {
		return g
	}
	now, slots := pl.eng.batchClock(), pl.nextIndex-1-pl.openIndex
	cost := (now - pl.openNs) / maxInt64(slots, 1)
	pl.openNs, pl.openIndex = now, pl.nextIndex-1
	switch {
	case slots == 0: // first open: probe at the starting grain
	case cost > coarseIterNs:
		g = 1
	case slots > 1 || pl.join.Load() == 1:
		g = minInt64(2*g, pl.grainMax)
	}
	pl.grain = g
	return g
}

// releaseChain drops the pipeline's reference on the most recent
// iteration frame at the end of the drain phase, allowing it to recycle
// (all iterations have retired by now, so this is the last reference).
func (pl *pipeline) releaseChain() {
	if pl.prevIter != nil {
		pl.prevIter.unref()
		pl.prevIter = nil
	}
}

// safeCond evaluates the user's loop condition, converting a panic into
// pipeline panic state (the condition runs on a worker goroutine).
func (pl *pipeline) safeCond() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			pl.recordPanicStack(r, debug.Stack())
			ok = false
		}
	}()
	return pl.cond()
}

// onIterReturn performs the bookkeeping when an iteration frame returns:
// decrement the join counter and, if that enables the parked control frame
// (throttle release or final sync), claim it. Returns the control frame if
// the caller is now responsible for delivering it.
func (pl *pipeline) onIterReturn() *frame {
	n := pl.join.Add(-1)
	cf := pl.control
	switch cf.status.Load() {
	case statusThrottled:
		if n < pl.K.Load() && cf.status.CompareAndSwap(statusThrottled, statusRunning) {
			return cf
		}
	case statusSyncing:
		if n == 0 && cf.status.CompareAndSwap(statusSyncing, statusRunning) {
			return cf
		}
	}
	return nil
}

// MaxLiveIterations reports the maximum number of simultaneously live
// iteration frames observed, the quantity bounded by the throttling
// analysis (Theorem 11 / Theorem 13).
func (pl *pipeline) MaxLiveIterations() int64 { return pl.maxLive.Load() }

// report snapshots the completed pipeline's space/shape numbers — the
// single source for both the blocking launch and the async harvest.
func (pl *pipeline) report() PipelineReport {
	return PipelineReport{
		Iterations:        pl.nextIndex,
		MaxLiveIterations: pl.maxLive.Load(),
		FinalThrottle:     pl.K.Load(),
		FinalGrain:        pl.grain,
		WorkNs:            pl.workNs.Load(),
		SpanNs:            pl.spanNs.Load(),
	}
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
