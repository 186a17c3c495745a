package core

import (
	"sync"
	"sync/atomic"
)

// Frame pooling (Section 9 spirit: keep per-iteration bookkeeping cheap).
//
// The steady state of a throttled pipeline creates and retires one
// iteration frame per iteration. Without pooling each frame costs a
// ~400-byte struct; with pooling an iteration frame recycles through a
// sync.Pool. Closure frames and pipeline/control pairs recycle through
// their own pools, and the runners bodies execute on through the engine's
// runner stack (see runner).
//
// Recycling discipline. A frame may be reused only when no goroutine can
// still dereference its non-atomic fields. Iteration frames are
// reference-counted (frame.refs): one reference is held by the scheduler
// from acquisition until retirement in afterDone (or the control frame's
// inline-completion path), and one travels down the successor chain — it
// is held first by the pipeline's prevIter slot and transfers to the
// successor's prev pointer, which the successor drops once it has
// observed stageDone (dropPrev). Stale *racy* readers — a thief that
// loaded a victim's assigned pointer just before the frame retired, or a
// predecessor's next pointer — touch only atomic fields plus the
// immutable kind, and the worst they can do is claim a park of the
// frame's next incarnation, which the parking protocols already treat as
// a spurious wake (publish-then-recheck; see parkOnCross and syncScope).
// Each pool therefore serves exactly one frame kind, so kind never
// changes on reuse and remains safely readable without synchronization.

// framePools is the engine's recycling state.
type framePools struct {
	iter     sync.Pool // *frame, kindIter
	task     sync.Pool // *frame, kindClosure
	pipeline sync.Pool // *pipeline with its embedded control frame

	hits   atomic.Int64
	misses atomic.Int64

	// Live gauges: checked-out-not-yet-retired counts per frame kind,
	// maintained on every acquire/release. An idle engine has all three at
	// zero; the cancellation and fuzz tests assert this to prove aborted
	// frames drain cleanly mid-flight.
	liveIter     atomic.Int64
	liveClosure  atomic.Int64
	livePipeline atomic.Int64
}

// acquireIterFrame returns a ready iteration frame, recycled from the pool
// when it has one.
func (e *Engine) acquireIterFrame() *frame {
	e.pools.liveIter.Add(1)
	var f *frame
	if v := e.pools.iter.Get(); v != nil {
		f = v.(*frame)
		e.pools.hits.Add(1)
	} else {
		e.pools.misses.Add(1)
		f = &frame{kind: kindIter, eng: e}
		f.it.f = f
	}
	// Reset the per-incarnation state.
	f.stage.Store(0)
	f.status.Store(statusRunning)
	f.waitStage.Store(0)
	f.next.Store(nil)
	f.prev = nil
	f.inStage0 = true
	f.foldCache = 0
	f.nFoldHits, f.nCrossChecks = 0, 0
	f.curScope = nil
	f.waitingScope.Store(nil)
	f.panicked = nil
	f.w = nil
	f.inline = false
	f.batched = false
	f.refs.Store(2) // scheduler ownership + the successor-chain slot
	return f
}

// unref drops one reference to an iteration frame, recycling it when the
// last reference goes.
func (f *frame) unref() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.eng.pools.liveIter.Add(-1)
	// Clear reference-holding fields so the pool does not pin dead object
	// graphs; scalar state resets on acquire.
	f.pl, f.r = nil, nil
	f.eng.pools.iter.Put(f)
}

// dropPrev releases the frame's reference on its predecessor. Runner-local
// (called only from the frame's own body), hence at most once per
// incarnation: prev is set non-nil only at creation.
func (f *frame) dropPrev() {
	if p := f.prev; p != nil {
		f.prev = nil
		p.unref()
	}
}

// acquireClosureFrame returns a fork-join task frame bound to sc and fn.
func (e *Engine) acquireClosureFrame(sc *scope, fn func(*worker)) *frame {
	e.pools.liveClosure.Add(1)
	if v := e.pools.task.Get(); v != nil {
		t := v.(*frame)
		e.pools.hits.Add(1)
		t.scope = sc
		t.fn = fn
		return t
	}
	e.pools.misses.Add(1)
	return &frame{kind: kindClosure, eng: e, scope: sc, fn: fn}
}

// releaseClosureFrame recycles a retired task frame. Closure frames are
// referenced only by the worker executing them (deque slots beyond the
// top/bottom window are never dereferenced), so no refcount is needed.
func (e *Engine) releaseClosureFrame(t *frame) {
	e.pools.liveClosure.Add(-1)
	t.scope = nil
	t.fn = nil
	e.pools.task.Put(t)
}

// acquirePipeline returns a pipeline with its control frame, reset for a
// new pipe_while execution.
func (e *Engine) acquirePipeline() *pipeline {
	e.pools.livePipeline.Add(1)
	var pl *pipeline
	if v := e.pools.pipeline.Get(); v != nil {
		pl = v.(*pipeline)
		e.pools.hits.Add(1)
	} else {
		e.pools.misses.Add(1)
		pl = &pipeline{eng: e}
		pl.control = &frame{kind: kindControl, eng: e}
		pl.control.pl = pl
	}
	// releasePipeline already cleared the references.
	pl.join.Store(0)
	pl.admitted, pl.tenant = false, 0
	pl.nextIndex = 0
	pl.phase = phaseLoop
	// The claim starts every pipeline at 1; openBatch takes it from there.
	pl.grain, pl.openNs, pl.openIndex = 1, 0, 0
	pl.panicVal.Store(nil)
	pl.maxLive = 0
	cf := pl.control
	cf.status.Store(statusRunning)
	cf.w = nil
	return pl
}

// releasePipeline recycles a completed pipeline after its results have
// been read (finishTopLevel or the nested PipeWhile). At that point every
// iteration has retired and the control frame has signalled completion,
// so only the releasing goroutine still holds the pipeline.
func (e *Engine) releasePipeline(pl *pipeline) {
	e.pools.livePipeline.Add(-1)
	pl.cond, pl.body = nil, nil
	pl.parent, pl.sub, pl.abort, pl.prevIter = nil, nil, nil, nil
	e.pools.pipeline.Put(pl)
}
