package core

import "sync/atomic"

// Stats aggregates scheduler event counters. All fields are monotone
// within a single Engine lifetime. They exist so that the runtime
// optimizations the paper describes (lazy enabling, dependency folding,
// tail swapping) are observable and testable, not just asserted.
type Stats struct {
	// Steals counts successful deque steals.
	Steals int64
	// FailedSteals counts steal attempts that found nothing.
	FailedSteals int64
	// LazyEnables counts suspended frames resumed by a check-right or
	// check-parent performed at a segment boundary (lazy enabling).
	LazyEnables int64
	// ThiefEnables counts suspended frames resumed by a thief performing
	// check-right on a victim's assigned frame.
	ThiefEnables int64
	// EagerEnables counts wakeups performed inside Wait/Continue when the
	// EagerEnabling ablation option is set.
	EagerEnables int64
	// TailSwaps counts iteration completions where both the right
	// neighbour and the throttled control frame were enabled and the
	// worker kept the neighbour, pushing the control frame for thieves.
	TailSwaps int64
	// CrossSuspends counts iterations that parked on an unsatisfied
	// cross edge.
	CrossSuspends int64
	// ThrottleParks counts control-frame suspensions due to the
	// throttling limit K.
	ThrottleParks int64
	// ThrottleGrows and ThrottleShrinks count adaptive window
	// adjustments (RunPipelineAdaptive).
	ThrottleGrows, ThrottleShrinks int64
	// ScopeSuspends counts fork-join syncs that had to park because
	// children were stolen.
	ScopeSuspends int64
	// CrossChecks counts reads of a predecessor's shared stage counter.
	CrossChecks int64
	// FoldHits counts cross-edge checks answered from the dependency-
	// folding cache without touching the shared counter.
	FoldHits int64
	// Iterations counts pipeline iterations started.
	Iterations int64
	// InlineIterations counts iterations started on the tier-1 inline
	// fast path: the body begins as a direct call on the worker's
	// goroutine, with no coroutine machinery (see frame.runInlineBatch).
	InlineIterations int64
	// Promotions counts inline iterations that had to block — an
	// unsatisfied cross edge, a fork-join sync on stolen children, a
	// nested pipeline — and were promoted to full coroutine frames
	// mid-body. An unblocked pipeline's steady state has zero.
	Promotions int64
	// BatchedIterations counts iterations executed as deferred-release
	// slots of an inline batch claim: their control-frame release (and
	// frame acquisition, and chain link) was amortized into the batch
	// (see frame.runInlineBatch). Every deferred-release slot counts; a
	// batch that runs its full claim contributes G-1 (the final slot runs
	// the plain per-iteration protocol), while one cut short by loop
	// exhaustion or an abort counts each slot it started. Grain(1)
	// engines always report zero.
	BatchedIterations int64
	// BatchSplits counts inline batches ended early because a claimed
	// slot had to block and promote; the residual claim is abandoned and
	// the adaptive grain backs off.
	BatchSplits int64
	// Segments counts coroutine and control segments driven by workers
	// (inline iterations are counted by InlineIterations instead).
	Segments int64
	// Pipelines counts pipe_while loops executed (including nested).
	Pipelines int64
	// ClosureTasks counts spawned fork-join tasks executed.
	ClosureTasks int64
	// Parks counts workers blocking on their park channel after an
	// unsuccessful scan of every work source.
	Parks int64
	// Wakes counts wake tokens delivered to parked workers by signal.
	// With event-driven parking each token targets a distinct worker, so
	// Wakes ≈ Parks in the steady state (the old single-slot wake channel
	// dropped tokens and relied on polling).
	Wakes int64
	// Injects counts root frames queued through the sharded injection
	// path (one per top-level pipeline launch).
	Injects int64
	// FramePoolHits and FramePoolMisses count acquisitions served from
	// the frame/pipeline pools versus fresh allocations (see pool.go).
	FramePoolHits, FramePoolMisses int64
	// InjectOverflows counts root-frame injections that found every
	// per-worker ring full and spilled to the mutex-guarded overflow
	// list. Nonzero only under Submit bursts that outrun the workers.
	InjectOverflows int64
	// Submits counts pipelines launched asynchronously through Submit.
	Submits int64
	// CancelRequests counts cancellations delivered to submissions —
	// context cancellations and Handle.Cancel calls that were first to
	// request an abort (later requests on the same Handle do not count).
	CancelRequests int64
	// AbortedIterations counts live iterations that unwound at a stage
	// boundary because their submission was canceled.
	AbortedIterations int64
	// AbortedPipelines counts submitted pipelines that completed with an
	// error on their Handle — a cancellation or a captured panic.
	AbortedPipelines int64
	// LiveIterFrames, LiveClosureFrames and LivePipelines are gauges of
	// currently checked-out (acquired, not yet retired) iteration frames,
	// fork-join task frames, and pipeline control blocks. On an idle
	// engine all three are zero — the leak invariant the cancellation
	// paths are tested against.
	LiveIterFrames, LiveClosureFrames, LivePipelines int64
	// LiveWorkers is the current size of the elastic worker pool, between
	// Options.MinWorkers and Options.MaxWorkers. Constant (== Workers) on
	// a fixed-P engine.
	LiveWorkers int64
	// WorkerSpawns and WorkerRetires count elastic pool resizes: slots
	// woken because work was published with the idle set empty (or the
	// injection rings overflowed), and surplus workers retired after the
	// idle grace period. Always zero on a fixed-P engine.
	WorkerSpawns, WorkerRetires int64
	// Saturations counts admissions that failed against the
	// Options.MaxPending budget or a tenant class quota: Submit calls
	// rejected with ErrSaturated plus SubmitWait calls whose context,
	// class admission deadline, or engine expired before a slot freed.
	// Per-class breakdowns are in Engine.TenantStats.
	Saturations int64
	// AdmissionWaitNs is the total time SubmitWait callers spent queued
	// for an admission slot, in nanoseconds, summed over all tenant
	// classes.
	AdmissionWaitNs int64
	// PendingAdmitted is the gauge of admission slots currently held —
	// top-level submitted pipelines admitted and not yet completed. Zero
	// when MaxPending is 0 (no budget).
	PendingAdmitted int64
	// LiveArenaBytes is the gauge of payload-buffer bytes currently
	// checked out of the engine's arena (Engine.Arena): charged at Get,
	// discharged at the final Release. Zero once every pipeline has
	// completed and released its regions — the data-plane leak invariant,
	// the arena analogue of the Live*Frames gauges above.
	LiveArenaBytes int64
	// ArenaBytesRecycled accumulates the capacity of every arena region
	// returned to a size-class pool. Always zero with
	// Options.ArenaBuffers disabled (the no-recycling ablation).
	ArenaBytesRecycled int64
	// ArenaGets, ArenaPuts and ArenaMisses count arena region checkouts,
	// returns to the pools, and checkouts that allocated fresh storage
	// because no pooled region of the size class was available. A
	// steady-state pipeline has Misses ≪ Gets.
	ArenaGets, ArenaPuts, ArenaMisses int64
	// PlansCompiled counts pipelines whose recorded iteration 0 sealed a
	// compiled execution plan (see plan.go). Always zero with
	// Options.CompilePlans disabled.
	PlansCompiled int64
	// PlanFusedStages counts stage transitions the plan compiler fused
	// away — interior pipe_continue boundaries between short stages whose
	// per-boundary bookkeeping is elided at dispatch — summed over all
	// compiled plans.
	PlanFusedStages int64
	// PlanDeopts counts compiled plans retracted because an iteration's
	// transitions diverged from the recorded shape; the pipeline falls
	// back to the interpreter mid-flight.
	PlanDeopts int64
}

// statCounters is the atomic backing store inside the engine.
type statCounters struct {
	steals          atomic.Int64
	failedSteals    atomic.Int64
	lazyEnables     atomic.Int64
	thiefEnables    atomic.Int64
	eagerEnables    atomic.Int64
	tailSwaps       atomic.Int64
	crossSuspends   atomic.Int64
	throttleParks   atomic.Int64
	throttleGrows   atomic.Int64
	throttleShrinks atomic.Int64
	scopeSuspends   atomic.Int64
	crossChecks     atomic.Int64
	foldHits        atomic.Int64
	iterations      atomic.Int64
	inlineIters     atomic.Int64
	promotions      atomic.Int64
	batchedIters    atomic.Int64
	batchSplits     atomic.Int64
	segments        atomic.Int64
	pipelines       atomic.Int64
	closureTasks    atomic.Int64
	parks           atomic.Int64
	wakes           atomic.Int64
	injects         atomic.Int64
	injectOverflows atomic.Int64
	submits         atomic.Int64
	cancelRequests  atomic.Int64
	abortedIters    atomic.Int64
	abortedPipes    atomic.Int64
	workerSpawns    atomic.Int64
	workerRetires   atomic.Int64
	saturations     atomic.Int64
	admissionWaitNs atomic.Int64
	plansCompiled   atomic.Int64
	planFusedStages atomic.Int64
	planDeopts      atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Steals:            c.steals.Load(),
		FailedSteals:      c.failedSteals.Load(),
		LazyEnables:       c.lazyEnables.Load(),
		ThiefEnables:      c.thiefEnables.Load(),
		EagerEnables:      c.eagerEnables.Load(),
		TailSwaps:         c.tailSwaps.Load(),
		CrossSuspends:     c.crossSuspends.Load(),
		ThrottleParks:     c.throttleParks.Load(),
		ThrottleGrows:     c.throttleGrows.Load(),
		ThrottleShrinks:   c.throttleShrinks.Load(),
		ScopeSuspends:     c.scopeSuspends.Load(),
		CrossChecks:       c.crossChecks.Load(),
		FoldHits:          c.foldHits.Load(),
		Iterations:        c.iterations.Load(),
		InlineIterations:  c.inlineIters.Load(),
		Promotions:        c.promotions.Load(),
		BatchedIterations: c.batchedIters.Load(),
		BatchSplits:       c.batchSplits.Load(),
		Segments:          c.segments.Load(),
		Pipelines:         c.pipelines.Load(),
		ClosureTasks:      c.closureTasks.Load(),
		Parks:             c.parks.Load(),
		Wakes:             c.wakes.Load(),
		Injects:           c.injects.Load(),
		InjectOverflows:   c.injectOverflows.Load(),
		Submits:           c.submits.Load(),
		CancelRequests:    c.cancelRequests.Load(),

		AbortedIterations: c.abortedIters.Load(),
		AbortedPipelines:  c.abortedPipes.Load(),
		WorkerSpawns:      c.workerSpawns.Load(),
		WorkerRetires:     c.workerRetires.Load(),
		Saturations:       c.saturations.Load(),
		AdmissionWaitNs:   c.admissionWaitNs.Load(),
		PlansCompiled:     c.plansCompiled.Load(),
		PlanFusedStages:   c.planFusedStages.Load(),
		PlanDeopts:        c.planDeopts.Load(),
	}
}
