package core

import (
	"piper/internal/dag"
)

// Pipeline plan compilation.
//
// A pipe_while program's stage structure is declared on the fly — each
// iteration announces its transitions by calling Wait and Continue — so
// the interpreter re-derives static facts at every stage boundary:
// argument validation, cross-edge structure, fold-cache state, and the
// instrumentation and eager-enabling branches. For the overwhelmingly
// common case of a shape-stable pipeline (every iteration takes the same
// transitions), all of that is decidable once.
//
// The compiler works by trace recording: iteration 0 runs under the
// ordinary interpreter with a lightweight recorder attached (planRecorder)
// that notes each transition's target stage, kind (wait/continue), and
// wall-clock cost. When iteration 0 retires cleanly, sealPlan validates
// the recorded shape through internal/dag (ValidateIter), derives the
// wait table (MaxCross) and the fusable transition set (FuseShort), and
// publishes an immutable *plan on the pipeline. Iterations created after
// publication bind the plan and dispatch each Wait/Continue against a
// cursor into its transition list:
//
//   - a matching unfused transition runs a specialized path that skips
//     argument re-validation, the instrumentation branches, and the
//     fold-cache compare chain (planCrossSatisfied is a single wait-table
//     comparison with a sticky crossDone bit);
//   - a matching fused transition — an interior pipe_continue between two
//     short stages — is elided entirely: no stage publication, no checks,
//     the two stage bodies run as one. Deferred publication is
//     conservative for successors (they observe the next unfused stage,
//     or stageDone), so cross-edge semantics are preserved exactly;
//   - a mismatch (the body diverged from the recorded shape) deopts:
//     planDiverge materializes the true stage counter, drops the plan
//     pipeline-wide, and falls through to the interpreter mid-iteration.
//     Compiled and interpreted execution interleave freely within one
//     pipeline, which is what makes the differential fuzzer's
//     plan-on/plan-off configs directly comparable.
//
// A plan whose recorded iteration never left stage 0 (serialOnly) enables
// the strongest specialization: runInlineBatchSerial (frame.go) retires
// whole batches with one published stage/status transition, and the
// control step elides the throttle gate while no iteration is live. The
// recorded cost also seeds such a pipeline's claim (see openBatch),
// replacing the cold ramp from 1 for bodies the recording proves cheap.
//
// Plans are compiled only when Options.CompilePlans is set together with
// DependencyFolding and lazy enabling (the compiled dispatch subsumes the
// fold cache and never performs eager check-rights, so the ablations that
// disable those must measure the interpreter), and never for instrumented
// pipelines (work/span accounting needs every node boundary observed).
// Tracing needs no such gate: its events are iteration-level segments,
// which compiled dispatch delimits identically, and a traced run pins the
// batch grain to 1 dynamically (openBatch), so per-iteration segments
// survive even a serial-only plan.

// maxPlanNodes bounds the recorded transition count. Programs with more
// stages than this fall back to the interpreter permanently — at that
// many boundaries per iteration the per-boundary savings are noise.
const maxPlanNodes = 32

// fuseThresholdNs is the recorded-stage-cost ceiling for fusing a
// pipe_continue transition: both neighbouring stages must be shorter than
// this for the boundary bookkeeping to dominate the work it separates.
const fuseThresholdNs = 2000

// planNode is one compiled stage transition.
type planNode struct {
	stage int64 // target stage
	wait  bool  // pipe_wait (incoming cross edge) vs pipe_continue
	fused bool  // transition elided at dispatch; stage publication deferred
}

// plan is the immutable compiled form of a pipeline's recorded shape.
// Published once through pipeline.plan and shared by every subsequent
// iteration frame; deopt swaps the pointer to nil but never mutates it.
type plan struct {
	nodes []planNode
	// serialOnly marks a recorded iteration that never left stage 0: the
	// whole body is the serial prologue, enabling the batched fast retire
	// loop and the throttle-gate elision.
	serialOnly bool
	// maxWait is the highest stage any transition waits on (-1 if none): a
	// predecessor observed past it can never block a planned wait again,
	// so the compiled cross check latches (see planCrossSatisfied).
	maxWait int64
	// fused counts fused transitions, for Stats and the report.
	fused int64
	// costNs is what the recorded iteration took from bind to retirement;
	// openBatch seeds a serial-only plan's claim from it.
	costNs int64
}

// planRecorder captures iteration 0's transitions. It is embedded in the
// pipeline (no allocation) and attached to at most one frame at a time;
// only that frame's runner goroutine touches it.
type planRecorder struct {
	n        int
	overflow bool
	start    int64
	stages   [maxPlanNodes]int64
	waits    [maxPlanNodes]bool
	times    [maxPlanNodes]int64
}

func (r *planRecorder) reset() {
	r.n = 0
	r.overflow = false
	r.start = nowNs()
}

// note records one executed transition. Called from the generic
// Wait/Continue paths after argument validation, so stages are already
// known to strictly increase.
func (r *planRecorder) note(j int64, wait bool) {
	if r.n >= maxPlanNodes {
		r.overflow = true
		return
	}
	r.stages[r.n] = j
	r.waits[r.n] = wait
	r.times[r.n] = nowNs()
	r.n++
}

// sealPlan compiles the recorded iteration 0 into a plan and publishes it
// on the pipeline. Called from finishIter on the recording frame's runner
// goroutine, before the frame's completion is published. Recordings cut
// short — a panic, an abort, or a transition-count overflow — seal
// nothing: later iterations keep interpreting.
func (pl *pipeline) sealPlan(f *frame) {
	r := f.rec
	f.rec = nil
	if r.overflow || f.panicked != nil || pl.panicked() || pl.abortRequested() {
		return
	}
	p := compilePlan(r, nowNs())
	if p == nil {
		return
	}
	pl.planCompiled = true
	pl.planStages = int64(r.n) + 1
	pl.planFused = p.fused
	pl.eng.stats.plansCompiled.Add(1)
	if p.fused > 0 {
		pl.eng.stats.planFusedStages.Add(p.fused)
	}
	pl.plan.Store(p)
}

// compilePlan lowers a recording into a plan via the dag package's
// single-iteration analyses. Returns nil if the recorded shape fails
// structural validation (belt and suspenders: the interpreter's
// checkStageArg already enforced it during recording).
func compilePlan(r *planRecorder, end int64) *plan {
	nodes := make([]dag.Node, r.n+1)
	prevT := r.start
	nodes[0] = dag.Node{Stage: 0}
	for t := 0; t < r.n; t++ {
		nodes[t].Weight = maxInt64(r.times[t]-prevT, 0)
		prevT = r.times[t]
		nodes[t+1] = dag.Node{Stage: r.stages[t], Cross: r.waits[t]}
	}
	nodes[r.n].Weight = maxInt64(end-prevT, 0)
	if err := dag.ValidateIter(nodes); err != nil {
		return nil
	}
	fusable := dag.FuseShort(nodes, fuseThresholdNs)
	p := &plan{
		nodes:      make([]planNode, r.n),
		serialOnly: r.n == 0,
		maxWait:    dag.MaxCross(nodes),
		costNs:     maxInt64(end-r.start, 0),
	}
	for t := 0; t < r.n; t++ {
		p.nodes[t] = planNode{stage: r.stages[t], wait: r.waits[t], fused: fusable[t+1]}
		if fusable[t+1] {
			p.fused++
		}
	}
	return p
}

// planStep dispatches stage transition j (wait or continue) against the
// compiled plan. Returns true when the transition was fully handled;
// false means execution diverged from the recorded shape — the plan has
// been dropped and the true stage counter materialized, and the caller
// must fall through to the generic interpreter path, which revalidates j
// from scratch.
func (f *frame) planStep(p *plan, j int64, wait bool) bool {
	cur := f.planCur
	if cur >= len(p.nodes) || p.nodes[cur].stage != j || p.nodes[cur].wait != wait {
		f.planDiverge(p)
		return false
	}
	f.planCur = cur + 1
	if p.nodes[cur].fused {
		// Fused interior continue: the two stage bodies run as one. The
		// stage counter is published at the next unfused transition (or as
		// stageDone at retirement), which is conservative for successors;
		// the abort check moves to that same boundary.
		return true
	}
	f.abortCheck()
	f.stage.Store(j)
	if wait && !f.planCrossSatisfied(p, j) {
		if f.inline {
			// Same promotion protocol as the interpreted Wait: the park's
			// publish-then-recheck re-validates the edge.
			f.promote()
		}
		f.parkOnCross(j)
		f.abortCheck()
	} else if f.inStage0 {
		f.leaveStage0Inline()
	}
	return true
}

// planCrossSatisfied is the compiled cross-edge check: a sticky
// runner-local bit plus one wait-table comparison replace the fold-cache
// compare chain. Once the predecessor's counter passes the plan's highest
// waited-on stage it can never block a PLANNED wait again (plan stages
// strictly increase and every planned wait is <= maxWait), so the bit
// latches. The predecessor reference itself is dropped only at stageDone,
// exactly like the interpreter: a later divergence can introduce a wait
// on a stage above maxWait, and the generic path it falls back to must
// still find prev to check the edge for real — dropping early on the
// wait-table comparison is the one shortcut that is NOT semantics-
// preserving (found by the differential fuzzer).
func (f *frame) planCrossSatisfied(p *plan, j int64) bool {
	if f.crossDone {
		f.nFoldHits++
		return true
	}
	prev := f.prev
	if prev == nil {
		f.crossDone = true
		return true
	}
	f.nCrossChecks++
	c := prev.stage.Load()
	if c == stageDone {
		f.crossDone = true
		f.dropPrev()
		return true
	}
	if c > p.maxWait {
		f.crossDone = true
		return true
	}
	return c > j
}

// planDiverge abandons compiled dispatch for this pipeline: the body took
// a transition the recorded shape does not predict. Fused transitions
// deferred their stage publication, so the true counter is materialized
// first — the generic path's argument validation and cross-edge protocol
// then resume from exact interpreter state.
func (f *frame) planDiverge(p *plan) {
	if cur := f.planCur; cur > 0 {
		if s := p.nodes[cur-1].stage; s > f.stage.Load() {
			f.stage.Store(s)
		}
	}
	f.plan = nil
	f.pl.deoptPlan()
}

// deoptPlan retracts the pipeline's published plan so no further
// iteration binds it. Frames already dispatching on the old pointer each
// diverge (or complete) independently; the plan itself is immutable.
func (pl *pipeline) deoptPlan() {
	if pl.plan.Swap(nil) != nil {
		pl.planDeopts.Add(1)
		pl.eng.stats.planDeopts.Add(1)
	}
}
