package core

// RunSerial executes a pipeline body with pipe_while semantics on the
// calling goroutine, with no scheduler at all: Wait and Continue only
// advance the stage counter (there is no previous iteration running, so
// every cross edge is vacuously satisfied the moment it is declared).
// This is the TS baseline of the paper's tables — the "serial
// counterpart" a speedup is measured against — and doubles as a
// debugging mode: any stage-discipline violation (non-increasing stages)
// panics identically to the parallel execution.
//
// The single frame is reused across iterations, so it must honor the same
// per-iteration reset contract as acquireIterFrame: everything an
// iteration body can observe through its Iter — the index, the stage
// counter, the stage-0 flag, the fork-join scope, and the panic slot —
// starts each iteration in its acquired state. Fork-join scope and nested
// pipelines are serially elided (Go runs the child inline, a nested
// PipeWhile recurses into RunSerial with a fresh frame), so today only
// curScope could carry state across iterations, and only if an elision
// path ever left it populated; resetSerialIter re-establishes the full
// contract anyway and serialContractCheck panics loudly if a future
// change breaks the elision invariant instead of letting the next
// iteration observe its predecessor's scope.
func RunSerial(cond func() bool, body func(*Iter)) PipelineReport {
	f := &frame{kind: kindIter, serial: true}
	it := &Iter{f: f}
	var n int64
	for cond() {
		f.resetSerialIter(n)
		body(it)
		f.serialContractCheck()
		n++
	}
	return PipelineReport{Iterations: n, MaxLiveIterations: 1, FinalGrain: 1}
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
// RunSerial, so no scope may survive the body. A violation means a future
// code path deferred work on a serial frame — state the next iteration
// would observe as stale — and is a runtime bug, not a user error.
func (f *frame) serialContractCheck() {
	if f.curScope != nil {
		panic("piper: internal error: serial iteration retired with a live fork-join scope")
	}
}

// serialAdvance is the Wait/Continue path for RunSerial frames.
func (f *frame) serialAdvance(j int64) {
	f.stage.Store(j)
	f.inStage0 = false
}
