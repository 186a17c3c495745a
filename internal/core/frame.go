// Package core implements PIPER, the provably efficient work-stealing
// scheduler for on-the-fly pipeline programs from Lee et al., "On-the-Fly
// Pipeline Parallelism" (SPAA 2013), adapted to Go.
//
// The scheduler executes "frames": control frames (one per pipe_while
// loop), iteration frames (one per loop iteration), and closure frames
// (fork-join tasks). There is one execution path.
//
// A worker runs a control segment (pl.step, and with it runInlineBatch)
// on a pooled runner: an iter.Pull coroutine that the worker enters with
// next() and that yields back when the segment ends (see runner). The
// iteration bodies the segment starts run as direct calls on the runner's
// stack, each Wait checking its cross edge with a plain atomic load. This
// mirrors the paper's core property — iterations execute greedily and
// stall only when a cross-edge dependency is actually unsatisfied — so the
// common case pays function-call cost, plus one coroutine switch per step
// call. The step additionally claims runs of up to G consecutive
// iterations into one control frame (grain control, pipeline.openBatch):
// the batch executes their bodies back-to-back through one recycled frame
// with one deque release for the whole run, and splits at the first
// iteration that must actually block. A slot that never released the
// control frame and never blocked publishes nothing — no stage, no
// completion — because no successor frame exists to read it; the batch
// publishes its completion once, at exit. The slot loop is straight-line:
// one deferred recover per batch, not one per body and per loop-condition
// call, turns a user panic or a cancel unwind into pipeline state.
//
// Only when an iteration must actually block — an unsatisfied cross edge,
// a fork-join sync on stolen children, a nested pipeline — does it
// suspend: its first block releases the control frame (promote), and the
// body yields its runner's coroutine back to the driving worker, which
// publishes the parked status (publishPark) and takes a spare runner for
// its next segment. The suspended frame keeps its runner (f.r); whichever
// worker later claims the frame resumes it with that runner's next(), and
// when the body finishes the runner returns to the resuming worker. The
// worker itself never changes identity: it is one goroutine for life.
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
	statusWaitJoin               // parked on waitingJoin: throttle, final sync, or fork-join sync
	statusDone
)

// yieldKind enumerates the messages a runner yields to the worker that
// entered or resumed it.
type yieldKind int8

const (
	yDone      yieldKind = iota // control: the pipeline finished
	ySuspend                    // control: parked on its pipeline's join (throttled or syncing)
	yIterDone                   // iteration child finished after releasing the control frame
	yParkCross                  // iteration child blocked on a cross edge; it keeps the runner
	yParkJoin                   // iteration child blocked on a scope's join; it keeps the runner
)

type yieldMsg struct {
	kind  yieldKind
	child *frame // the iteration, for every kind but yDone and ySuspend
}

const stageDone = math.MaxInt64

// cacheLinePad separates hot cross-thread atomics from unrelated state so
// a writer on one word does not invalidate readers of its neighbours
// (64 bytes covers every GOARCH this targets; on the few 128-byte-line
// parts the pair of pads around each group still isolates it).
type cacheLinePad = [64]byte

// frame is the unit of scheduling. One struct type covers all three kinds
// so the work-stealing deque stays monomorphic. kind is immutable for the
// frame's whole pooled lifetime (each pool serves one kind), so stale
// racy readers — a thief inspecting a victim's assigned pointer — may
// read it and the atomic fields, but nothing else.
type frame struct {
	kind frameKind
	eng  *Engine

	// r is the runner whose stack holds the iteration's body (iteration
	// frames), set when the body starts. A parked frame keeps it; the
	// worker that resumes the frame enters it with r's next().
	r *runner
	// inline is true while the iteration body has not blocked yet.
	// Runner-local; cleared by promotion, the iteration's first block.
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

	// w is the worker currently driving this frame's segment: the worker
	// that entered the runner, or the one that resumed the parked frame.
	// Stable for the duration of the segment; user code pushes spawned
	// tasks onto w's deque through it.
	w *worker

	// Iteration state.
	pl       *pipeline
	it       Iter // the handle passed to the body; self-referential, reused
	index    int64
	prev     *frame // iteration index-1; runner-local, nil once satisfied-done
	inStage0 bool   // runner-local: still in the serial stage-0 prefix
	cur      int64  // runner-local stage the body is in; stage lags it in a batch slot

	// Dependency folding: the most recently observed value of prev's stage
	// counter. Runner-local, so reads cost nothing. Never written when the
	// DependencyFolding ablation is off, which keeps the crossSatisfied
	// fast path honest (a zero cache can never satisfy a stage j >= 1).
	foldCache int64
	// Runner-local stat shadows, flushed to the engine at finish.
	nFoldHits, nCrossChecks int64

	// serial marks a frame driven by the serial elision (runSerial): no
	// runner, no scheduler, stage calls only advance the counter. prof,
	// set on a ProfilePipeline frame only, records the dag as it runs.
	serial bool
	prof   *profile

	// Closure state: a Go child runs call, a For chunk runs fn on the
	// worker that executes it. Go stores the user's func as is, so a
	// spawn allocates no wrapper.
	fn    func(w *worker)
	call  func()
	scope *scope

	// curScope accumulates children spawned with Go until the next Sync.
	// Runner-local.
	curScope *scope

	// The join this frame parks on (valid while status==statusWaitJoin): a
	// scope's for an iteration, its pipeline's for a control frame.
	waitingJoin atomic.Pointer[join]

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

// runInlineBatch executes a claimed run of up to claim consecutive
// iterations of f's pipeline back-to-back on f, on runner r: stage bodies
// separated by cross-edge checks, as direct calls. The first iteration is
// already materialized in f by the control frame's step; each later claim
// slot re-evaluates the loop condition and recycles f in place, so the
// whole run pays one frame acquisition, one successor-chain link, one
// throttle token, one completion store, and at most one deque release of
// the control frame. Only the final slot runs the plain release protocol;
// earlier slots defer it (f.batched), keeping the pipe_while
// continuation on this worker so the next body starts with no scheduler
// traffic at all. Wait and Continue promote (see promote) only if an
// iteration must actually block — promotion performs the deferred release
// and abandons the residual claim, splitting the batch, so suspension,
// cancellation unwinding, and serial-stage ordering are exactly those of
// the unbatched protocol, which claim == 1 reproduces bit for bit.
//
// It reports whether the caller (the control frame's step) still owns
// the control frame: true when the batch ended with a body that never
// left stage 0, or the loop exhausted or aborted mid-claim. false means
// the final slot released the control frame — at its stage-0 exit, or at
// a block, after which the body finished on whichever worker resumed it —
// so a thief may be stepping the pipeline right now, and the caller must
// unwind to the worker loop, which retires the iteration through
// afterDone.
//
// A slot that returned without releasing the control frame — a
// deferred-release slot that never blocked, or a final slot that never
// left stage 0 — takes the fast retire: its stage lived in f.cur alone
// (advance), and its completion (finishIter) is published once, at
// whichever batch exit follows. That is sound because the batch holds the
// control frame for its whole run: no successor frame exists to read the
// stage counter, and nothing outside this runner observes the recycled
// slot. Any other slot released the control frame and ends the batch, so
// the loop continues only after a fast slot.
//
// One deferred recover serves the whole batch: every slot's body, with
// its implicit sync, and every in-batch loop-condition call run under it,
// and inBody and inCond say which of them was running. A body panic is
// recorded into the pipeline (an abortUnwind sentinel, a cancel observed
// at a stage boundary, is only counted), children spawned before the
// unwind are joined, and the slot retires as one that returned; a
// condition panic is recorded and exhausts the loop. Either way the batch
// ends there, as the claim gates below would end it. A suspension
// mid-body does not leave the frame — the body stays on its runner's
// stack — so cancellation and panic capture behave identically whether or
// not the iteration ever suspends, and on whichever worker it was resumed.
func (f *frame) runInlineBatch(r *runner, claim int64) (owned bool) {
	e := f.eng
	pl := f.pl
	f.w, f.r = r.w, r
	var started, deferred int64
	// fast marks a slot retired on the fast branch, whose completion is
	// still unpublished.
	var fast bool
	// retire ends the slot that just ran and reports whether the control
	// frame is still ours.
	retire := func() bool {
		fast = f.inline && (f.inStage0 || f.batched)
		if !fast {
			f.finishIter()
		}
		if f.batched {
			f.batched = false
			deferred++
			return true
		}
		// A final slot that released the control frame — a slot that
		// blocked always did, because promote cleared f.batched and
		// released — leaves it to whoever stole it.
		return f.inStage0
	}
	flush := func() {
		if fast {
			f.finishIter()
		}
		if started > 1 {
			// The first slot was counted by newIter; the in-batch ones
			// bypassed it.
			e.stats.iterations.Add(started - 1)
		}
		if deferred > 0 {
			e.stats.batchedIters.Add(deferred)
		}
	}
	var inBody, inCond bool
	defer func() {
		if !inBody && !inCond {
			return // not a user panic: let it through
		}
		v := recover()
		if v == nil {
			return // runtime.Goexit: nothing to recover
		}
		if inCond {
			pl.recordPanicStack(v, debug.Stack())
			pl.phase = phaseDrain
			owned = true
			flush()
			return
		}
		if _, isAbort := v.(abortUnwind); isAbort {
			e.stats.abortedIters.Add(1)
		} else {
			pl.recordPanicStack(v, debug.Stack())
		}
		// Join children spawned before the unwind: no fork-join task of
		// this iteration may outlive its frame's retirement, or a canceled
		// Submit would complete while user closures still run (and the
		// frame would recycle under a live scope owner).
		if sc := f.curScope; sc != nil {
			f.curScope = nil
			f.drainScope(sc)
		}
		owned = retire()
		flush()
	}()
	for {
		claim--
		f.batched = claim > 0
		f.inline = true
		started++
		inBody = true
		pl.body(&f.it)
		// Implicit cilk_sync: every Cilk function syncs before returning,
		// so children spawned with Go but never Synced join here.
		if sc := f.curScope; sc != nil {
			f.curScope = nil
			f.syncScope(sc)
		}
		inBody = false
		if !retire() {
			// A thief may be stepping the pipeline right now.
			flush()
			return false
		}
		// The control frame is still ours — a deferred-release slot
		// completed, or the body never left stage 0. Take the next slot,
		// applying the same gates the step loop would: nothing starts
		// after an abort or panic, and the loop condition (part of the
		// next iteration's serial stage 0) runs exactly once per started
		// iteration.
		if claim <= 0 || pl.panicked() || pl.abortRequested() {
			flush()
			return true
		}
		e.hookAt(hookBatchSlot)
		inCond = true
		more := pl.cond()
		inCond = false
		if !more {
			// Record the exhausted loop so step does not evaluate the
			// condition again (it may consume input).
			pl.phase = phaseDrain
			flush()
			return true
		}
		// A fast slot left the shared words as the batch found them, so
		// only runner-local state resets; the stat shadows wait for the
		// batch's one finishIter. Dropping prev leaves the next slot's
		// cross edges vacuously satisfied.
		f.dropPrev()
		f.index = pl.nextIndex
		pl.nextIndex++
		f.cur, f.inStage0, f.foldCache = 0, true, 0
	}
}

// resetIter gives f the per-incarnation state of iteration index: the
// fields a body reaches. It serves a frame fresh from the pool (newIter)
// and the serial elision's one frame; the scheduler's fields (the chain,
// the park target, the refcount) reset in acquireIterFrame.
func (f *frame) resetIter(index int64) {
	f.index = index
	f.cur = 0
	f.stage.Store(0)
	f.status.Store(statusRunning)
	f.waitStage.Store(0)
	f.inStage0 = true
	f.foldCache = 0
	f.nFoldHits, f.nCrossChecks = 0, 0
	f.curScope = nil
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

// promote prepares an iteration's first block (unsatisfied cross edge,
// fork-join sync on stolen children, nested pipeline): it counts the
// promotion and, if the control frame is still frozen below the body on
// this runner's stack, releases it so the pipeline keeps unfolding while
// the body is parked. Nothing is replayed and nothing moves: the body's
// locals stay on the runner's stack, and the park that follows is an
// ordinary yield.
func (f *frame) promote() {
	e := f.eng
	e.stats.promotions.Add(1)
	if f.batched || f.inStage0 {
		// The control frame is still frozen below us — an unreleased
		// stage-0 prefix, or a batch slot that deferred its release — so
		// hand it to the deque first and the pipeline keeps unfolding
		// while we park. A blocked slot also ends its batch: the residual
		// claim is abandoned by runInlineBatch. The release is the first
		// moment a successor can exist, so publish cur (see advance) first.
		if f.batched {
			f.batched = false
			e.stats.batchSplits.Add(1)
			f.stage.Store(f.cur)
		}
		f.releaseControl()
	}
	f.inline = false
}

// releaseControl ends the iteration's serial stage-0 prefix: the control
// frame — whose step call sits frozen below us on this runner's stack — is
// pushed to the deque, where a thief (or this worker, once the body
// completes) picks it up to run iteration i+1's stage 0, unfolding the
// pipeline: the continuation becomes stealable and the worker keeps the
// child, preserving the spawned-child-first discipline. The frozen step
// invocation learns of the release through runInlineBatch's result and
// unwinds without touching the pipeline again. A batched release (claim
// above 1) wakes nobody: this worker is back at its deque within one
// iteration cheaper than coarseIterNs, long before a ~50 µs wake lands,
// and an awake peer still steals the frame. Claim 1 keeps the wake.
func (f *frame) releaseControl() {
	f.inStage0 = false
	w, pl := f.w, f.pl
	w.assigned.Store(f)
	if pl.grain > 1 {
		w.deque.Push(pl.control)
	} else {
		w.pushWork(pl.control)
	}
	f.eng.hookAt(hookReleaseControl)
}

// abortCheck unwinds the iteration if its submission has been canceled.
// Called at stage boundaries — the cooperative preemption points —
// before and after a block alike.
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
			if _, isAbort := r.(abortUnwind); !isAbort {
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
		f.stage.Store(stageDone)
		f.dropPrev()
		// An in-batch slot has no predecessor to check, so both shadows
		// are usually 0; a locked add of 0 would cost it as much as a
		// stage store.
		if f.nCrossChecks != 0 {
			f.eng.stats.crossChecks.Add(f.nCrossChecks)
		}
		if f.nFoldHits != 0 {
			f.eng.stats.foldHits.Add(f.nFoldHits)
		}
	}
	f.status.Store(statusDone)
}

// park suspends the body: its runner yields kind (yParkCross or
// yParkJoin) to the driving worker and returns once a worker resumes the
// frame. The caller has stored what it waits for (waitStage or
// waitingJoin) but not the parked status: the driving worker publishes
// that in publishPark, after the switch, so no waker can claim the frame
// and enter its runner before the runner has stopped running.
func (f *frame) park(kind yieldKind) {
	f.r.yield(yieldMsg{kind: kind, child: f})
}

// publishPark is the driving worker's half of a park: the body of f has
// just yielded kind on its runner. It publishes the parked status, then
// re-checks the condition (publish-then-recheck: a waker that finished
// before the publish cannot have seen it). It reports whether the
// condition already holds and the worker took f back; the worker then
// resumes it at once. Otherwise f belongs to whichever waker claims it.
//
// The re-check touches only what was loaded before the publish and atomic
// words: once the status is out, a waker may resume f on another worker,
// whose body then owns f's runner-local fields. A predecessor that retired
// and recycled meanwhile can make the check read a newer incarnation's
// counter; the claim that follows is then at worst spurious, which the
// body's re-check after every wake absorbs.
func (f *frame) publishPark(kind yieldKind) bool {
	if kind == yParkJoin {
		_, took := f.waitingJoin.Load().publish()
		return took
	}
	p, j := f.prev, f.waitStage.Load()
	f.eng.stats.crossChecks.Add(1)
	f.status.Store(statusWaitCross)
	f.eng.hookAt(hookParkPublish)
	return p.stage.Load() > j && f.status.CompareAndSwap(statusWaitCross, statusRunning)
}

// --- Cross-edge protocol -------------------------------------------------

// advance moves the iteration to stage j, completing all nodes with
// stage < j, for Wait and Continue. A deferred-release batch slot has no
// successor, so it only moves cur (promote publishes it if the slot
// blocks); any other iteration publishes the stage (publishStage). The
// split keeps the batch slot's transition inlined into its caller.
func (f *frame) advance(j int64) {
	f.cur = j
	if !f.batched {
		f.publishStage(j)
	}
}

// publishStage stores the shared stage counter, then performs the
// check-right that lazy enabling defers, on every advance under the
// EagerEnabling ablation and otherwise only while a worker is parked. Lazy
// enabling counts on awake thieves to find a satisfied waiter through
// stealFrom's check-right; ours park, and with one asleep nobody else may
// look, so the claimed waiter goes through pushWork, whose signal wakes
// the sleeper.
func (f *frame) publishStage(j int64) {
	f.stage.Store(j)
	e := f.eng
	if f.next.Load() == nil || e.idle.Load() == 0 && !e.opts.EagerEnabling {
		return
	}
	if nxt := e.tryWakeRight(f); nxt != nil {
		if e.opts.EagerEnabling {
			e.stats.eagerEnables.Add(1)
		} else {
			e.stats.parkedEnables.Add(1)
		}
		f.w.pushWork(nxt)
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
// crossSatisfiedShared. An iteration without a predecessor (the first
// one, a batch slot past the first, one whose predecessor retired) is
// satisfied inline too, after the cache so FoldHits count the same.
func (f *frame) crossSatisfied(j int64) bool {
	if f.foldCache > j {
		f.nFoldHits++
		return true
	}
	if f.prev == nil {
		return true
	}
	return f.crossSatisfiedShared(j)
}

// crossSatisfiedShared is the cache-miss half of crossSatisfied and the
// re-check after a park: load the predecessor's published stage counter
// once, refresh the folding cache, and handle the stageDone sentinel
// (releasing the chain for the garbage collector and the frame pool's
// recycling refcount). f.prev is non-nil: crossSatisfied returned early
// otherwise, and a parked iteration keeps its predecessor until this
// check sees it retire.
func (f *frame) crossSatisfiedShared(j int64) bool {
	p := f.prev
	f.nCrossChecks++
	c := p.stage.Load()
	if f.eng.opts.DependencyFolding {
		f.foldCache = c
	}
	if c == stageDone {
		f.dropPrev()
		return true
	}
	return c > j
}
