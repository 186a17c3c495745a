// Package core implements PIPER, the provably efficient work-stealing
// scheduler for on-the-fly pipeline programs from Lee et al., "On-the-Fly
// Pipeline Parallelism" (SPAA 2013), adapted to Go.
//
// The scheduler executes "frames": control frames (one per pipe_while
// loop), iteration frames (one per loop iteration), and closure frames
// (fork-join tasks). Execution is two-tier:
//
// Tier 1 — inline. A worker first drives an iteration as a direct
// function call on its own stack (runInlineBatch): stage bodies run in a
// loop, each Wait checking its cross edge with a plain atomic load, with
// no runner goroutine and no channel handshake anywhere. This mirrors the
// paper's core property — iterations execute greedily and stall only when
// a cross-edge dependency is actually unsatisfied — so the common case
// (the edge is satisfied, which throttling and the serial stage-0
// discipline make overwhelmingly likely) pays only function-call cost.
// The fast path additionally claims runs of up to G consecutive
// iterations into one control frame (grain control, Options.Grain): the
// batch executes their bodies back-to-back through one recycled frame
// with one deque release for the whole run, amortizing the fixed
// per-iteration scheduling cost, and splits at the first iteration that
// must actually block so every blocking path below is unchanged.
//
// Tier 2 — promoted. Only when an iteration must actually block — an
// unsatisfied cross edge, a fork-join sync on stolen children, a nested
// pipeline — does it promote to a full coroutine frame: the worker
// goroutine itself becomes the frame's coroutine runner (the body's
// locals are already on its stack, so nothing is replayed; promotion
// happens at a stage boundary and the suspended state is just the frame's
// stage index and scheduling words), and a replacement goroutine takes
// over the worker role, starting out as the frame's driver blocked on the
// yield channel exactly where execute would be. From then on the frame
// runs under the ordinary suspend/resume protocol: a worker "executes" it
// by resuming the runner over the channel pair and blocking until it
// yields, preserving PIPER's bind-to-element structure, throttling, and
// deque discipline.
package core

import (
	"math"
	"runtime/debug"
	"sync/atomic"
)

type frameKind int8

const (
	kindControl frameKind = iota
	kindIter
	kindClosure
)

// Frame status values. Parked frames are owned by nobody; a waker claims a
// parked frame with a CAS from its parked status to statusRunnable and is
// then solely responsible for delivering it to a worker.
const (
	statusRunning   int32 = iota // executing, assigned, or queued on a deque
	statusWaitCross              // iteration parked on an unsatisfied cross edge
	statusWaitScope              // coroutine parked in a fork-join sync or nested pipe
	statusThrottled              // control parked: live iterations == K
	statusSyncing                // control parked: waiting for iterations to return
	statusDone
)

// yieldKind enumerates the messages a frame's coroutine sends its driver,
// plus the step-local results that never cross a channel.
type yieldKind int8

const (
	yDone       yieldKind = iota // frame finished
	ySuspend                     // frame parked (status says why)
	yInlineDone                  // control: an inline iteration completed after releasing the control frame
	yPromoted                    // control: the goroutine promoted away; the worker role moved on
)

type yieldMsg struct {
	kind  yieldKind
	child *frame // for yInlineDone
}

const stageDone = math.MaxInt64

// cacheLinePad separates hot cross-thread atomics from unrelated state so
// a writer on one word does not invalidate readers of its neighbours
// (64 bytes covers every GOARCH this targets; on the few 128-byte-line
// parts the pair of pads around each group still isolates it).
type cacheLinePad = [64]byte

// coTail is the coroutine half of an iteration frame: the unbuffered
// channel pair over which a runner goroutine and its driver hand control
// back and forth. The tail is attached only on promotion (from its own
// pool — see pool.go) and detached again at retirement, so unblocked
// iterations never carry one.
type coTail struct {
	resume chan struct{}
	yield  chan yieldMsg
}

// frame is the unit of scheduling. One struct type covers all three kinds
// so the work-stealing deque stays monomorphic. kind is immutable for the
// frame's whole pooled lifetime (each pool serves one kind), so stale
// racy readers — a thief inspecting a victim's assigned pointer — may
// read it and the atomic fields, but nothing else.
type frame struct {
	kind frameKind
	eng  *Engine

	// co is the coroutine machinery (iteration frames); see coTail for
	// when it is attached. Non-nil exactly while the frame is promoted: the
	// goroutine that promoted is its runner.
	co *coTail
	// inline is true while the iteration body runs as a direct call on the
	// worker's goroutine (tier 1). Runner-local; cleared by promotion or at
	// inline completion.
	inline bool
	// batched is true while the iteration runs as a deferred-release slot
	// of an inline batch claim: the control frame's release at the stage-0
	// exit is postponed to the batch's final slot, so the batch pays one
	// deque release instead of one per iteration (see runInlineBatch).
	// Runner-local; cleared at slot completion or by promotion, which
	// performs the deferred release itself.
	batched bool
	// refs counts reasons the frame cannot yet be recycled: the
	// scheduler's ownership plus the successor chain's prev reference
	// (see pool.go for the full discipline).
	refs atomic.Int32

	// w is the worker currently driving this frame's segment. For a
	// coroutine segment it is set by driveSegment before the runner
	// resumes; for an inline run it is the executing worker itself. Stable
	// for the duration of the segment; user code pushes spawned tasks onto
	// w's deque through it.
	w *worker

	// Iteration state.
	pl       *pipeline
	it       Iter // the handle passed to the body; self-referential, reused
	index    int64
	prev     *frame // iteration index-1; runner-local, nil once satisfied-done
	inStage0 bool   // runner-local: still in the serial stage-0 prefix

	// Dependency folding: the most recently observed value of prev's stage
	// counter. Runner-local, so reads cost nothing. Never written when the
	// DependencyFolding ablation is off, which keeps the crossSatisfied
	// fast path honest (a zero cache can never satisfy a stage j >= 1).
	foldCache int64
	// Compiled-plan dispatch state (see plan.go), all runner-local: plan
	// is the immutable shape this incarnation dispatches on (nil:
	// interpret), planCur the cursor into its transition list, crossDone
	// the sticky wait-table bit (the predecessor can never block this
	// iteration again), and rec the iteration-0 trace recorder.
	plan      *plan
	planCur   int
	crossDone bool
	rec       *planRecorder
	// Runner-local stat shadows, flushed to the engine at finish.
	nFoldHits, nCrossChecks int64

	// Work/span instrumentation (see instrument.go). nodeStart, curCrit,
	// workAcc and prevCritCursor are runner-local; critLog is the
	// published per-node critical-path log read by the successor.
	instrOn        bool
	nodeStart      int64
	curCrit        int64
	workAcc        int64
	prevCritCursor int
	critLog        critLog

	// serial marks a frame driven by RunSerial: no coroutine, no
	// scheduler, stage calls only advance the counter.
	serial bool

	// Closure state.
	fn    func(w *worker)
	scope *scope

	// curScope accumulates children spawned with Go until the next Sync.
	// Runner-local.
	curScope *scope

	// Scope this coroutine is parked on (valid while status==statusWaitScope).
	waitingScope atomic.Pointer[scope]

	// panicked carries a user panic out of the coroutine.
	panicked any

	// --- hot cross-thread words -----------------------------------------
	// The successor polls stage on every cross-edge check and wakers CAS
	// status, while the owner rewrites the runner-local scratch above many
	// times per stage; padding on both sides keeps that scratch traffic
	// from invalidating the line the neighbours' loads have cached.
	_         cacheLinePad
	stage     atomic.Int64 // all nodes with stage < this value are complete
	status    atomic.Int32
	waitStage atomic.Int64          // valid while status == statusWaitCross
	next      atomic.Pointer[frame] // iteration index+1, set by the control frame
	_         cacheLinePad
}

// driveSegment resumes the frame's coroutine and blocks until it yields.
// It is only ever called on promoted frames, whose runner (the goroutine
// that promoted) is already live and parked on the resume channel.
func (f *frame) driveSegment(w *worker) yieldMsg {
	f.w = w
	w.eng.stats.segments.Add(1)
	f.co.resume <- struct{}{}
	return <-f.co.yield
}

// runBody executes the iteration body, converting a user panic into
// pipeline panic state. An abortUnwind sentinel (a cancel observed at a
// stage boundary) exits through the same path without recording a panic.
// A promotion mid-body does not leave it — the promoting goroutine keeps
// the body on its stack — so cancellation and panic capture behave
// identically whether or not the iteration ever suspends.
func (f *frame) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortUnwind); isAbort {
				f.eng.stats.abortedIters.Add(1)
			} else {
				f.panicked = r
				if f.pl != nil {
					f.pl.recordPanicStack(r, debug.Stack())
				}
			}
			// Join children spawned before the unwind: no fork-join task of
			// this iteration may outlive its frame's retirement, or a
			// canceled Submit would complete while user closures still run
			// (and the frame would recycle under a live scope owner).
			if sc := f.curScope; sc != nil {
				f.curScope = nil
				f.drainScope(sc)
			}
		}
	}()
	f.instrBeginIteration()
	f.pl.body(&f.it)
	// Implicit cilk_sync: every Cilk function syncs before returning, so
	// children spawned with Go but never Synced join here.
	if sc := f.curScope; sc != nil {
		f.curScope = nil
		f.syncScope(sc)
	}
}

// inlineResult reports how an inline iteration run ended.
type inlineResult int8

const (
	// inlineDoneOwned: the body completed without leaving stage 0; the
	// caller (the control frame's step) still owns the control frame and
	// retires the iteration itself.
	inlineDoneOwned inlineResult = iota
	// inlineDoneReleased: the body completed inline after releasing the
	// control frame at its stage-0 exit. The caller no longer owns the
	// control frame (a thief may be stepping it right now) and must unwind
	// to the worker loop, which retires the iteration through afterDone.
	inlineDoneReleased
	// inlinePromoted: the iteration promoted mid-body and this goroutine
	// served as its coroutine runner to completion; the worker role
	// belongs to a takeover goroutine. The caller must unwind without
	// touching the worker or the pipeline.
	inlinePromoted
)

// runInlineBatch executes a claimed run of up to claim consecutive
// iterations of f's pipeline back-to-back on f — the tier-1 fast path at
// batch granularity: no runner goroutine, no channel handshake, just
// stage bodies separated by cross-edge checks. The first iteration is
// already materialized in f by the control frame's step; each later claim
// slot re-evaluates the loop condition and recycles f in place
// (resetBatchIter), so the whole run pays one frame acquisition, one
// successor-chain link, one throttle token, and at most one deque release
// of the control frame. Only the final slot runs the plain release
// protocol; earlier slots defer it (f.batched), keeping the pipe_while
// continuation on this worker so the next body starts with no scheduler
// traffic at all. Wait and Continue detect the inline mode through
// f.inline and promote (see promote) only if an iteration must actually
// block — promotion performs the deferred release and abandons the
// residual claim, splitting the batch, so promotion semantics,
// cancellation unwinding, and serial-stage ordering are exactly those of
// the unbatched protocol, which claim == 1 reproduces bit for bit.
func (f *frame) runInlineBatch(w *worker, claim int64) inlineResult {
	e := f.eng
	pl := f.pl
	f.w = w
	var started, deferred int64
	flush := func() {
		e.stats.inlineIters.Add(started)
		if started > 1 {
			// The first slot was counted by newIter; the in-batch ones
			// bypassed it.
			e.stats.iterations.Add(started - 1)
		}
		if deferred > 0 {
			e.stats.batchedIters.Add(deferred)
		}
	}
	for {
		claim--
		f.batched = claim > 0
		f.inline = true
		started++
		f.runBody()
		f.finishIter()
		if !f.inline {
			// Promoted mid-body: this goroutine is the frame's runner now,
			// and a driver (the takeover goroutine or whichever worker
			// resumed us last) is blocked on the yield channel. Hand it the
			// retired frame and unwind; the tail detaches at the frame's
			// last unref and the next incarnation starts inline again.
			flush()
			f.co.yield <- yieldMsg{kind: yDone}
			return inlinePromoted
		}
		f.inline = false
		if f.batched {
			f.batched = false
			deferred++
		} else if !f.inStage0 {
			// Final slot, and it released the control frame at its stage-0
			// exit: a thief may be stepping the pipeline right now, so the
			// caller must unwind to the worker loop.
			flush()
			return inlineDoneReleased
		}
		// The control frame is still ours — a deferred-release slot
		// completed, or the body never left stage 0. Take the next slot,
		// applying the same gates the step loop would: nothing starts
		// after an abort or panic, and the loop condition (part of the
		// next iteration's serial stage 0) runs exactly once per started
		// iteration.
		if claim <= 0 || pl.panicked() || pl.abortRequested() {
			flush()
			return inlineDoneOwned
		}
		e.hookAt(hookBatchSlot)
		if !pl.safeCond() {
			// Record the exhausted loop so step does not evaluate the
			// condition again (it may consume input).
			pl.phase = phaseDrain
			flush()
			return inlineDoneOwned
		}
		f.resetBatchIter()
	}
}

// runInlineBatchSerial is the compiled serial-only variant of
// runInlineBatch, entered by step when the pipeline's sealed plan proved
// iteration 0 never left stage 0 (plan.serialOnly) and this frame is
// bound to that plan. While each slot's body indeed retires wholly inside
// stage 0 with the plan intact, the per-slot publication protocol is
// elided: no stageDone/statusDone stores, no statusRunning/waitStage
// resets, no stat-shadow flushes — completion is published once, at batch
// exit. That is sound because the batch holds the control frame for its
// whole run: no successor frame exists to read the stage counter, and
// nothing outside this goroutine observes the recycled slots. Any slot
// that deviates — the plan was retracted, the body left stage 0 after
// all, it panicked, or a fork-join promotion took the goroutine — falls
// into a slow tail that replays the exact generic per-iteration sequence
// and ends the batch, so divergence costs one shortened batch, never a
// protocol difference.
func (f *frame) runInlineBatchSerial(w *worker, claim int64) inlineResult {
	e := f.eng
	pl := f.pl
	f.w = w
	var started, deferred int64
	flush := func() {
		e.stats.inlineIters.Add(started)
		if started > 1 {
			e.stats.iterations.Add(started - 1)
		}
		if deferred > 0 {
			e.stats.batchedIters.Add(deferred)
		}
	}
	for {
		claim--
		f.batched = claim > 0
		f.inline = true
		started++
		f.runBody()
		if f.plan == nil || !f.inStage0 || f.panicked != nil || !f.inline {
			// Slow tail: this slot diverged from the serial shape (or the
			// plan was dropped mid-body). Replay the generic sequence for it
			// and end the batch; the next batch re-reads the plan pointer
			// and dispatches accordingly.
			f.finishIter()
			if !f.inline {
				flush()
				f.co.yield <- yieldMsg{kind: yDone}
				return inlinePromoted
			}
			f.inline = false
			if f.batched {
				f.batched = false
				deferred++
				flush()
				return inlineDoneOwned
			}
			if !f.inStage0 {
				flush()
				return inlineDoneReleased
			}
			flush()
			return inlineDoneOwned
		}
		// Fast retire: the body ran wholly inside stage 0 with the plan
		// intact, so the slot never parked, never published, and never
		// touched its stat shadows (f.rec is nil past iteration 0; the
		// cross-check counters stay zero with no transitions taken).
		f.inline = false
		if f.batched {
			f.batched = false
			deferred++
		}
		if claim <= 0 || pl.panicked() || pl.abortRequested() {
			f.stage.Store(stageDone)
			f.status.Store(statusDone)
			f.dropPrev()
			flush()
			return inlineDoneOwned
		}
		e.hookAt(hookBatchSlot)
		if !pl.safeCond() {
			pl.phase = phaseDrain
			f.stage.Store(stageDone)
			f.status.Store(statusDone)
			f.dropPrev()
			flush()
			return inlineDoneOwned
		}
		// Minimal in-place recycle: only index advances. stage stayed 0,
		// status stayed statusRunning, inStage0 stayed true, the cursor
		// never moved (no transitions in a serial plan), and prev was
		// dropped by the first slot's entry path or is already nil.
		f.index = pl.nextIndex
		pl.nextIndex++
	}
}

// resetBatchIter recycles f in place for the next claimed slot of an
// inline batch. The batch still holds the control frame, so no successor
// frame exists and nothing outside this goroutine can observe the
// non-atomic resets; the predecessor reference was already dropped by the
// previous slot's finishIter, which is also why the new slot's cross
// edges are all vacuously satisfied (prev == nil). Mirrors
// acquireIterFrame's per-incarnation reset minus the pool, refcount, and
// chain traffic the batch amortizes away; the instrumentation fields are
// untouched because openBatch pins instrumented (and traced) pipelines to
// claim == 1.
func (f *frame) resetBatchIter() {
	pl := f.pl
	f.index = pl.nextIndex
	pl.nextIndex++
	f.stage.Store(0)
	f.status.Store(statusRunning)
	f.waitStage.Store(0)
	f.inStage0 = true
	f.foldCache = 0
	f.nFoldHits, f.nCrossChecks = 0, 0
	f.planCur = 0
	f.crossDone = false
	if f.plan != nil {
		// A deopt retracts the published plan; later slots of the batch
		// must observe it (a nil reload) rather than keep dispatching on
		// the stale shape.
		f.plan = pl.plan.Load()
	}
	f.curScope = nil
	f.panicked = nil
}

// leaveStage0Inline ends the serial stage-0 prefix of an inline
// iteration. A deferred-release batch slot only marks the exit — the
// control frame stays with the batch, which itself runs the next
// iteration's stage 0, in order — while an unbatched iteration (or a
// batch's final slot) makes the pipe_while continuation stealable
// immediately through releaseControl.
func (f *frame) leaveStage0Inline() {
	if f.batched {
		f.inStage0 = false
		return
	}
	f.releaseControl()
}

// promote converts a running inline iteration into a full coroutine frame
// because it is about to block (unsatisfied cross edge, fork-join sync on
// stolen children, nested pipeline). Promotion happens at a stage
// boundary, so nothing is replayed: the scheduling state is already in
// the frame, and the body's locals stay on this goroutine's stack — the
// goroutine simply changes roles, from worker w's scheduling loop to the
// frame's coroutine runner. A freshly spawned takeover goroutine assumes
// the worker role; it starts out as this frame's driver, blocked on the
// yield channel exactly where execute would be mid-driveSegment, so the
// standard park protocols (parkOnCross, syncScope) and the retirement
// handshake run unchanged from here on. If the blocking condition
// resolves before the park publishes (the publish-then-recheck in those
// protocols), the body continues on this goroutine with the takeover
// goroutine as its patient driver — exactly the normal coroutine
// relationship, just with the roles acquired in the opposite order.
func (f *frame) promote() {
	w := f.w
	e := f.eng
	e.stats.promotions.Add(1)
	if f.batched || f.inStage0 {
		// The control frame is still frozen below us — an unreleased
		// stage-0 prefix, or a batch slot that deferred its release — so
		// hand it to the deque first and the pipeline keeps unfolding
		// while we park. A blocked slot also ends its batch: the residual
		// claim is abandoned by runInlineBatch.
		if f.batched {
			f.batched = false
			e.stats.batchSplits.Add(1)
		}
		f.releaseControl()
	}
	f.inline = false
	f.co = e.acquireCoTail()
	w.promoted = f
	//piper:allow-go bounded by the pipeline: takeover drives this frame to stageDone, which the pipe_while drain awaits
	go w.takeoverFn()
}

// releaseControl ends the iteration's serial stage-0 prefix on the inline
// path: the control frame — whose step call sits frozen below us on this
// goroutine's stack — is pushed to the deque, where a thief (or this
// worker, once the inline body completes) picks it up to run iteration
// i+1's stage 0, unfolding the pipeline: the continuation becomes
// stealable and the worker keeps the child, preserving the
// spawned-child-first discipline. The frozen step
// invocation learns of the release through runInlineBatch's result and
// unwinds without touching the pipeline again.
func (f *frame) releaseControl() {
	f.inStage0 = false
	w := f.w
	w.assigned.Store(f)
	w.pushWork(f.pl.control)
	f.eng.hookAt(hookReleaseControl)
}

// abortCheck unwinds the iteration if its submission has been canceled.
// Called at stage boundaries — the cooperative preemption points —
// inline and promoted alike.
func (f *frame) abortCheck() {
	if f.pl.abortRequested() {
		panic(abortUnwind{})
	}
}

// drainScope joins sc while already unwinding, recording (rather than
// rethrowing) any child panic.
func (f *frame) drainScope(sc *scope) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortUnwind); !isAbort && f.pl != nil {
				f.pl.recordPanicStack(r, debug.Stack())
			}
		}
	}()
	f.syncScope(sc)
}

// finishIter publishes iteration completion: every cross edge out of this
// iteration is now satisfied.
func (f *frame) finishIter() {
	if f.kind == kindIter {
		if f.rec != nil {
			// The recording iteration retired: compile and publish the
			// pipeline's plan before completion is announced.
			f.pl.sealPlan(f)
		}
		f.instrFinishIteration()
		f.stage.Store(stageDone)
		f.dropPrev()
		f.eng.stats.crossChecks.Add(f.nCrossChecks)
		f.eng.stats.foldHits.Add(f.nFoldHits)
	}
	f.status.Store(statusDone)
}

// park yields the given suspend message and blocks until a worker resumes
// the frame. The caller must already have published the parked status and
// re-checked its condition (or lost a claiming CAS to a waker).
func (f *frame) park(msg yieldMsg) {
	f.co.yield <- msg
	<-f.co.resume
}

// --- Cross-edge protocol -------------------------------------------------

// advance moves the iteration's stage counter to j, completing all nodes
// with stage < j. Under the EagerEnabling ablation it also performs the
// check-right that PIPER's lazy enabling would defer.
func (f *frame) advance(j int64) {
	f.stage.Store(j)
	if f.eng.opts.EagerEnabling {
		if nxt := f.eng.tryWakeRight(f); nxt != nil {
			f.eng.stats.eagerEnables.Add(1)
			f.w.pushWork(nxt)
		}
	}
}

// crossSatisfied reports whether node (index-1, j) has completed, i.e.
// whether the cross edge into node (index, j) is resolved. The fast path
// is a single runner-local comparison: the folding cache answers without
// touching shared memory whenever a previous load already proved the
// predecessor past j — including the stageDone sentinel, which dominates
// every stage argument, so a retired predecessor is satisfied forever
// after one read. Everything that must touch the shared counter (or the
// DependencyFolding ablation, which never populates the cache) lives in
// crossSatisfiedShared.
func (f *frame) crossSatisfied(j int64) bool {
	if f.foldCache > j {
		f.nFoldHits++
		return true
	}
	return f.crossSatisfiedShared(j)
}

// crossSatisfiedShared is the cache-miss half of crossSatisfied: load the
// predecessor's published stage counter once, refresh the folding cache,
// and handle the stageDone sentinel (releasing the chain for the garbage
// collector and the frame pool's recycling refcount — except under
// instrumentation, which still needs the predecessor's crit log).
func (f *frame) crossSatisfiedShared(j int64) bool {
	p := f.prev
	if p == nil {
		return true
	}
	f.nCrossChecks++
	c := p.stage.Load()
	if f.eng.opts.DependencyFolding {
		f.foldCache = c
	}
	if c == stageDone {
		if !f.instrOn {
			f.dropPrev()
		}
		return true
	}
	return c > j
}

// crossSatisfiedSlow re-reads the shared counter, bypassing the folding
// cache (required for the recheck in the parking protocol).
func (f *frame) crossSatisfiedSlow(j int64) bool {
	p := f.prev
	if p == nil {
		return true
	}
	f.nCrossChecks++
	c := p.stage.Load()
	if f.eng.opts.DependencyFolding {
		f.foldCache = c
	}
	return c > j
}
