package core

import "piper/internal/dag"

// RunSerial executes a pipeline body with pipe_while semantics on the
// calling goroutine, with no scheduler at all: Wait and Continue only
// advance the stage counter (there is no previous iteration running, so
// every cross edge is vacuously satisfied the moment it is declared).
// This is the TS baseline of the paper's tables — the "serial
// counterpart" a speedup is measured against — and doubles as a
// debugging mode: any stage-discipline violation (non-increasing stages)
// panics identically to the parallel execution.
func RunSerial(cond func() bool, body func(*Iter)) PipelineReport {
	return runSerial(&frame{kind: kindIter, serial: true}, cond, body)
}

// runSerial is the serial elision's one loop, shared by RunSerial,
// ProfilePipeline and every nested pipeline either reaches; with f.prof
// set it records the dag, and the report carries its work and span. The
// one frame is reused across iterations: resetSerialIter gives each the
// state acquireIterFrame would, and serialContractCheck guards the one
// field only a broken elision could leave set.
func runSerial(f *frame, cond func() bool, body func(*Iter)) PipelineReport {
	it := &Iter{f: f}
	var n int64
	for cond() {
		f.resetSerialIter(n)
		body(it)
		f.serialContractCheck()
		if p := f.prof; p != nil {
			p.advance(0, true) // end the iteration
		}
		n++
	}
	rep := PipelineReport{Iterations: n, MaxLiveIterations: 1, FinalGrain: 1}
	if p := f.prof; p != nil {
		rep.WorkNs, rep.SpanNs = p.t1, p.dag.Span()
	}
	return rep
}

// profileFrame returns a serial frame that profiles on e's clock, with
// e's worker count for For's grain. Its Iter reports e as its Engine.
func (e *Engine) profileFrame() *frame {
	return &frame{kind: kindIter, serial: true, eng: e, prof: &profile{eng: e, at: e.batchClock()}}
}

// resetSerialIter is the serial mirror of acquireIterFrame's
// per-incarnation reset, restricted to the fields a serial body can reach.
func (f *frame) resetSerialIter(index int64) {
	f.index = index
	f.stage.Store(0)
	f.waitStage.Store(0)
	f.inStage0 = true
	f.foldCache = 0
	f.curScope = nil
	f.panicked = nil
}

// serialContractCheck asserts the serial-elision invariant at iteration
// exit: Go and For run children inline and nested pipelines recurse into
// runSerial, so no scope may survive the body. A violation means a future
// code path deferred work on a serial frame — state the next iteration
// would observe as stale — and is a runtime bug, not a user error.
func (f *frame) serialContractCheck() {
	if f.curScope != nil {
		panic("piper: internal error: serial iteration retired with a live fork-join scope")
	}
}

// profile records the dag of one serially elided pipeline for
// ProfilePipeline. Like the modified Cilkview of Section 10 it measures an
// instrumented serial execution: every spawn runs as a call and every
// nested pipeline in place, so each strand begins and ends at a clock
// stamp and no scheduling or interference cost enters any of them.
//
// A node's work is every interval it ran, a nested pipeline counting its
// own T1. Its span follows the series-parallel rule: the continuation's
// span (cont) grows by every interval it runs; a Go child runs beside it,
// a path cont+child (pend) that joins at the next Sync or at the node's
// end (a stage boundary joins every outstanding child); a For adds its
// longest leaf chunk, a nested pipeline its own T∞. The loop condition is
// part of the stage-0 node of the iteration it starts. T1 sums node work;
// T∞ is internal/dag's recurrence over the nodes, weighted by their span.
type profile struct {
	eng  *Engine
	dag  dag.Pipeline // the ended iterations
	iter []dag.Node   // the running iteration's ended nodes
	t1   int64

	// The open node: its stage, whether Wait entered it, the clock at the
	// last stamp, and its work, continuation span and longest unjoined
	// child path so far.
	stage            int64
	cross            bool
	at               int64
	work, cont, pend int64
}

// stamp charges the interval since the last stamp to the node's work and
// returns it; the caller says which path it lengthens.
func (p *profile) stamp() int64 {
	now := p.eng.batchClock()
	d := now - p.at
	p.work += d
	p.at = now
	return d
}

// spawn is the elided Go: fn runs beside the continuation until the join.
func (p *profile) spawn(fn func()) {
	p.cont += p.stamp()
	fn()
	p.pend = max(p.pend, p.cont+p.stamp())
}

// sync joins the children spawned since the last join.
func (p *profile) sync() {
	p.cont, p.pend = max(p.cont+p.stamp(), p.pend), 0
}

// forLoop is the elided For: the engine's leaf chunks, in index order,
// all beside each other and joined at the end.
func (p *profile) forLoop(n, grain int, body func(int)) {
	grain = p.eng.forGrain(n, grain)
	p.cont += p.stamp()
	var longest int64
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if hi-lo > grain {
			mid := lo + (hi-lo)/2
			split(lo, mid)
			split(mid, hi)
			return
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
		longest = max(longest, p.stamp())
	}
	split(0, n)
	p.cont += longest
}

// nested profiles a nested pipeline in place: its T1 joins the node's
// work and its T∞ the continuation.
func (p *profile) nested(cond func() bool, body func(*Iter)) {
	p.cont += p.stamp()
	rep := runSerial(p.eng.profileFrame(), cond, body)
	p.work += rep.WorkNs
	p.cont += rep.SpanNs
	p.at = p.eng.batchClock()
}

// advance records the open node at its end, joining every child still
// outstanding, and opens node j, entered by Wait when cross is set. j = 0
// ends the iteration: the next one's stage 0, which begins with the loop
// condition, follows this one's. The clock restarts after the
// bookkeeping, which is no node's work.
func (p *profile) advance(j int64, cross bool) {
	p.cont += p.stamp()
	p.iter = append(p.iter, dag.Node{Stage: p.stage, Weight: max(p.cont, p.pend), Cross: p.cross})
	p.t1 += p.work
	p.work, p.cont, p.pend = 0, 0, 0
	p.stage, p.cross = j, cross
	if j == 0 {
		p.dag.Iters = append(p.dag.Iters, p.iter)
		p.iter = make([]dag.Node, 0, len(p.iter))
	}
	p.at = p.eng.batchClock()
}
