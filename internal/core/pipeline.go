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

	// K is the throttling limit: at most K iteration frames are live. Set
	// once by newPipeline and read only by step, which parks under it.
	K int64
	// live counts live (started, unreturned) iteration frames: the
	// paper's control-frame join counter, which the control frame parks on
	// both to throttle and to sync (see step).
	live join

	control *frame

	// parent is the scope a nested pipe_while completes into; nil for a
	// top-level pipeline, which completes through sub instead.
	parent *scope

	// sub is the Handle of a top-level pipeline — a Submit's, or the one a
	// blocking launch waits on; completion is harvested into it by
	// finishTopLevel.
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

	nextIndex int64

	// Control-frame state machine (stepped on the runner of whichever
	// worker holds the control frame; serialized by frame ownership).
	// maxLive is the observed maximum of live for the space experiments
	// (Theorem 13): live iteration frames ≈ iteration stack space.
	phase    int8
	prevIter *frame
	maxLive  int64

	// Batched inline execution (see frame.runInlineBatch). All three words
	// are control-frame state like phase: serialized by frame ownership,
	// so the claim policy needs no atomics. grain is the current run
	// length G a batch claims; openNs and openIndex are the clock and
	// nextIndex at the previous batch open, from which the next open
	// derives the measured per-iteration cost (see openBatch).
	grain     int64
	openNs    int64
	openIndex int64

	panicVal atomic.Pointer[panicBox]
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

// recordPanicStack stores the first panic with the panicking goroutine's
// stack. CAS (rather than sync.Once) keeps the pipeline reusable through
// the frame pool.
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
func (it *Iter) Stage() int64 { return it.f.cur }

// Engine returns the engine executing this iteration, for spawning nested
// pipelines.
func (it *Iter) Engine() *Engine { return it.f.eng }

func (it *Iter) checkStageArg(j int64) {
	if cur := it.f.cur; j <= cur {
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
		if p := f.prof; p != nil {
			p.advance(j, true)
		}
		f.stage.Store(j)
		f.cur = j
		f.inStage0 = false
		return
	}
	f.abortCheck()
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
}

// Continue implements pipe_continue(j): end the current node and begin
// node (i, j) immediately.
func (it *Iter) Continue(j int64) {
	f := it.f
	it.checkStageArg(j)
	if f.serial {
		if p := f.prof; p != nil {
			p.advance(j, false)
		}
		f.stage.Store(j)
		f.cur = j
		f.inStage0 = false
		return
	}
	f.abortCheck()
	f.advance(j)
	if f.inStage0 {
		f.leaveStage0Inline()
	}
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
// standard condition-variable discipline. The re-check bypasses the
// folding cache, which only ever proves an edge satisfied, and drops a
// predecessor that retired meanwhile.
func (f *frame) parkOnCross(j int64) {
	for {
		f.waitStage.Store(j)
		f.eng.stats.crossSuspends.Add(1)
		f.park(yParkCross)
		if f.crossSatisfiedShared(j) {
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
	f.resetIter(pl.nextIndex)
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
// outstanding iterations. The throttle and the sync are one wait on the
// live-iteration join, under limit K while the loop runs and 1 once it
// drains.
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
	e := pl.eng
	e.stats.segments.Add(1)
	for {
		if pl.phase == phaseLoop && (pl.panicked() || pl.abortRequested()) {
			// Abort or panic: stop spawning. The loop condition is not
			// evaluated again (it may consume input), and phaseDrain
			// syncs on the live iterations, which unwind at their next
			// stage boundary.
			pl.phase = phaseDrain
		}
		// Throttle before testing the loop condition: the condition is
		// part of the next iteration's serial stage 0, and its evaluation
		// may consume an input element, so it must run exactly once per
		// started iteration.
		throttled, limit := pl.phase == phaseLoop, int64(1)
		if throttled {
			limit = pl.K
		}
		if pl.live.n.Load() >= limit {
			// Park. Once the status is published a leave may claim the
			// frame and step it on another worker, so nothing of pl is
			// read after publish: throttled and e were taken before.
			pl.live.limit.Store(limit)
			ready, took := pl.live.publish()
			if took {
				continue // the count fell meanwhile: unparked ourselves
			}
			if throttled && !ready {
				e.stats.throttleParks.Add(1)
			}
			return yieldMsg{kind: ySuspend}
		}
		if !throttled {
			pl.releaseChain()
			return yieldMsg{kind: yDone}
		}
		if !pl.safeCond() {
			pl.phase = phaseDrain
			continue
		}
		if live := pl.live.n.Add(1); live > pl.maxLive {
			pl.maxLive = live
		}

		e.hookAt(hookIteration)
		it := pl.newIter(pl.prevIter)
		pl.prevIter = it
		// Drive the iteration from here; stage 0 runs serially in
		// iteration order, exactly as the pipe_while transformation in the
		// paper prescribes. Claim a batch of up to openBatch() consecutive
		// iterations and run their bodies as direct calls on this runner,
		// all through the one frame just acquired. The batch's final slot
		// releases this control frame to the deque at its stage-0 exit
		// (thieves pick it up to run the next iteration's stage 0), and any
		// slot that must block performs that release itself before it
		// parks — after either event this step invocation no longer owns
		// the pipeline and must unwind through the returned message without
		// touching it.
		tracing := e.tracing.Load()
		var traceStart int64
		if tracing {
			traceStart = nowNs()
		}
		if !it.runInlineBatch(r, pl.openBatch()) {
			if it.inline {
				// A blocked iteration's resumed segments are traced by the
				// workers that resumed it.
				w.traceSegment(tracing, kindIter, it.index, traceStart)
			}
			return yieldMsg{kind: yIterDone, child: it}
		}
		// The batch ran to completion without releasing the control frame
		// (its final body never left stage 0, or the loop exhausted/aborted
		// mid-claim): retire the frame here. The chain slot (pl.prevIter)
		// keeps its reference until the next iteration links past it.
		w.traceSegment(tracing, kindIter, it.index, traceStart)
		pl.live.n.Add(-1)
		it.unref()
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

// maxClaim bounds the claim. A full batch serializes its iterations on one
// worker between control-frame releases, so the ceiling trades
// amortization against how long the pipe_while continuation stays
// unstealable: at most maxClaim·coarseIterNs.
const maxClaim = 64

// openBatch returns the claim length for the next inline batch. Called by
// step with control-frame ownership, once per batch, after newIter. The
// claim is a function of measured cost alone: one clock read per open, and
// the time since the previous open divided by the iterations started in
// between is what one iteration cost. Above coarseIterNs the claim drops
// to 1 — the continuation is released at every stage-0 exit, the paper's
// protocol — and otherwise it doubles up to maxClaim, from 1 on a fresh
// pipeline. A one-slot sample taken while an older iteration is still live
// (live > 1: the continuation was stolen, or its iteration suspended)
// covers only the time the control frame took to change hands, so it can
// prove a body coarse but not cheap, and the claim stays where it is; from
// two slots up the window holds every slot but the last in full. A cheap
// body therefore reaches maxClaim within seven opens, with no seed.
func (pl *pipeline) openBatch() int64 {
	g := pl.grain
	now, slots := pl.eng.batchClock(), pl.nextIndex-1-pl.openIndex
	cost := (now - pl.openNs) / max(slots, 1)
	pl.openNs, pl.openIndex = now, pl.nextIndex-1
	switch {
	case slots == 0: // first open: probe at the starting grain
	case cost > coarseIterNs:
		g = 1
	case slots > 1 || pl.live.n.Load() == 1:
		g = min(2*g, maxClaim)
	}
	if h := pl.eng.hooks; h != nil && h.claim != nil {
		g = h.claim(g)
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
