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
	// ParkedEnables counts wakeups performed inside Wait/Continue under
	// lazy enabling because a worker was parked (see frame.publishStage).
	ParkedEnables int64
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
	// ScopeSuspends counts fork-join syncs that had to park because
	// children were stolen.
	ScopeSuspends int64
	// CrossChecks counts reads of a predecessor's shared stage counter.
	CrossChecks int64
	// FoldHits counts cross-edge checks answered from the dependency-
	// folding cache without touching the shared counter.
	FoldHits int64
	// Iterations counts pipeline iterations started. Every iteration's
	// body starts as a direct call on a control segment's runner (see
	// frame.runInlineBatch).
	Iterations int64
	// Promotions counts iterations that blocked at least once — an
	// unsatisfied cross edge, a fork-join sync on stolen children, a
	// nested pipeline — counted at the first block, which releases the
	// control frame and parks the body on its runner. An unblocked
	// pipeline's steady state has zero.
	Promotions int64
	// BatchedIterations counts iterations executed as deferred-release
	// slots of an inline batch claim: their control-frame release (and
	// frame acquisition, and chain link) was amortized into the batch
	// (see frame.runInlineBatch). Every deferred-release slot counts; a
	// batch that runs its full claim contributes G-1 (the final slot runs
	// the plain per-iteration protocol), while one cut short by loop
	// exhaustion or an abort counts each slot it started. Pipelines that
	// run claim 1 — coarse ones — add zero, and so does
	// ProfilePipeline, which runs the serial elision without the engine.
	BatchedIterations int64
	// BatchSplits counts inline batches ended early because a claimed
	// slot had to block and promote; the residual claim is abandoned.
	BatchSplits int64
	// Segments counts the times a worker entered a runner: control
	// segments, and resumes of parked iterations.
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
	// FramePoolHits and FramePoolMisses count acquisitions served from
	// the frame/pipeline pools versus fresh allocations (see pool.go).
	FramePoolHits, FramePoolMisses int64
	// InjectOverflows always reads 0. Top-level pipelines reach the
	// workers through one root queue that has no capacity to overflow;
	// the field stays for the benchmark, which still reports it.
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
	// AbortedPipelines counts top-level pipelines that completed with an
	// error on their Handle — a cancellation or a captured panic — blocking
	// PipeWhile/RunPipeline launches that re-panicked in their caller
	// included.
	AbortedPipelines int64
	// LiveIterFrames, LiveClosureFrames and LivePipelines are gauges of
	// currently checked-out (acquired, not yet retired) iteration frames,
	// fork-join task frames, and pipeline control blocks. On an idle
	// engine all three are zero — the leak invariant the cancellation
	// paths are tested against.
	LiveIterFrames, LiveClosureFrames, LivePipelines int64
	// Saturations, AdmissionWaitNs and PendingAdmitted read 0 from
	// Engine.Stats; piper.Engine.Stats fills them from one snapshot of its
	// admission semaphore. Saturations counts admissions that failed:
	// Submit calls rejected with ErrSaturated, SubmitWait calls whose
	// context was done before a slot freed, and submissions refused or
	// released by Close (ErrEngineClosed): Σ (Rejected + Canceled) over
	// TenantStats.
	Saturations int64
	// AdmissionWaitNs is the total time SubmitWait callers spent queued
	// for an admission slot, in nanoseconds: Σ AdmissionWaitNs over
	// TenantStats.
	AdmissionWaitNs int64
	// PendingAdmitted is the gauge of admission slots held — submitted
	// pipelines admitted and not yet completed: Σ Pending over
	// TenantStats. Read outside the stable-gauge loop, it is exact on a
	// quiescent engine.
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
	// PlansCompiled and PlanDeopts always read 0. The engine has no plan
	// compiler: every Wait and Continue runs through one dispatcher. The
	// fields stay for readers that still difference them.
	PlansCompiled, PlanDeopts int64
}

// statCounters is the atomic backing store inside the engine.
type statCounters struct {
	steals         atomic.Int64
	failedSteals   atomic.Int64
	lazyEnables    atomic.Int64
	thiefEnables   atomic.Int64
	eagerEnables   atomic.Int64
	parkedEnables  atomic.Int64
	tailSwaps      atomic.Int64
	crossSuspends  atomic.Int64
	throttleParks  atomic.Int64
	scopeSuspends  atomic.Int64
	crossChecks    atomic.Int64
	foldHits       atomic.Int64
	iterations     atomic.Int64
	promotions     atomic.Int64
	batchedIters   atomic.Int64
	batchSplits    atomic.Int64
	segments       atomic.Int64
	pipelines      atomic.Int64
	closureTasks   atomic.Int64
	parks          atomic.Int64
	wakes          atomic.Int64
	submits        atomic.Int64
	cancelRequests atomic.Int64
	abortedIters   atomic.Int64
	abortedPipes   atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Steals:            c.steals.Load(),
		FailedSteals:      c.failedSteals.Load(),
		LazyEnables:       c.lazyEnables.Load(),
		ThiefEnables:      c.thiefEnables.Load(),
		EagerEnables:      c.eagerEnables.Load(),
		ParkedEnables:     c.parkedEnables.Load(),
		TailSwaps:         c.tailSwaps.Load(),
		CrossSuspends:     c.crossSuspends.Load(),
		ThrottleParks:     c.throttleParks.Load(),
		ScopeSuspends:     c.scopeSuspends.Load(),
		CrossChecks:       c.crossChecks.Load(),
		FoldHits:          c.foldHits.Load(),
		Iterations:        c.iterations.Load(),
		Promotions:        c.promotions.Load(),
		BatchedIterations: c.batchedIters.Load(),
		BatchSplits:       c.batchSplits.Load(),
		Segments:          c.segments.Load(),
		Pipelines:         c.pipelines.Load(),
		ClosureTasks:      c.closureTasks.Load(),
		Parks:             c.parks.Load(),
		Wakes:             c.wakes.Load(),
		Submits:           c.submits.Load(),
		CancelRequests:    c.cancelRequests.Load(),

		AbortedIterations: c.abortedIters.Load(),
		AbortedPipelines:  c.abortedPipes.Load(),
	}
}
