// Package piper provides on-the-fly pipeline parallelism for Go: a
// faithful reproduction of the Cilk-P linguistics and the PIPER
// work-stealing scheduler from I-T. A. Lee, C. E. Leiserson, T. B.
// Schardl, J. Sukha and Z. Zhang, "On-the-Fly Pipeline Parallelism",
// SPAA 2013.
//
// A linear pipeline is written as a pipe_while loop: the condition and the
// body's prefix up to the first Wait or Continue form the serial stage 0,
// executed in iteration order; Wait(j) ("pipe_wait") begins stage j after
// the same stage of the previous iteration has completed, creating a cross
// edge; Continue(j) ("pipe_continue") begins stage j immediately. Stage
// numbers must strictly increase within an iteration, and skipped stages
// become null nodes exactly as in the paper. Stages may contain fork-join
// parallelism (Go/Sync/For) and nested pipelines.
//
// The scheduler automatically throttles each pipeline to at most K live
// iterations (default 4·P), precluding runaway pipelines, and implements
// the paper's lazy enabling, dependency folding, and tail-swap
// optimizations, each individually switchable for ablation studies.
// Iterations run inline on their worker and become coroutines only when a
// cross edge is really unsatisfied, and frames, coroutine tails and
// pipeline state are pooled for an allocation-free steady state; neither
// has a switch.
//
// Beyond the blocking PipeWhile, Engine.Submit launches pipelines
// asynchronously for serving workloads: many concurrent pipelines per
// engine, context cancellation that aborts a run at stage boundaries and
// drains its frames back to the pools, and panics surfaced as errors
// (*PanicError) through the returned Handle.
//
// A minimal SPS (serial-parallel-serial) pipeline:
//
//	eng := piper.NewEngine(piper.Workers(8))
//	defer eng.Close()
//	i := 0
//	eng.PipeWhile(func() bool { return i < len(inputs) }, func(it *piper.Iter) {
//		in := inputs[i] // stage 0: serial input
//		i++
//		it.Continue(1) // stage 1: parallel
//		out := process(in)
//		it.Wait(2) // stage 2: serial, in order
//		emit(out)
//	})
package piper

import (
	"time"

	"piper/internal/core"
)

// Engine is a PIPER scheduler instance: P workers with work-stealing
// deques executing pipeline programs.
type Engine = core.Engine

// Iter is the per-iteration handle passed to pipeline bodies.
type Iter = core.Iter

// Stats aggregates scheduler event counters (steals, suspensions,
// lazy-enabling and dependency-folding activity, tail swaps, ...).
type Stats = core.Stats

// Handle tracks a pipeline started asynchronously with Engine.Submit.
// Wait blocks for completion and returns nil, the submission context's
// error, or a *PanicError; Report adds the PipelineReport; Done exposes a
// completion channel for select loops; Cancel aborts without a context.
type Handle = core.Handle

// PanicError is the error a Handle reports when the pipeline's condition
// or body panicked: the panic value plus the panicking goroutine's stack.
type PanicError = core.PanicError

// ErrEngineClosed is reported through a Handle when Submit is called on a
// closed engine.
var ErrEngineClosed = core.ErrEngineClosed

// ErrSaturated is reported through a Handle when Submit finds the
// engine's pending-pipeline budget (MaxPending) or the tenant class's
// quota exhausted — the reject admission policy. SubmitWait queues for a
// slot instead.
var ErrSaturated = core.ErrSaturated

// ErrUnknownTenant is reported through a Handle when SubmitTenant or
// SubmitWaitTenant names a class the engine was not configured with.
var ErrUnknownTenant = core.ErrUnknownTenant

// ErrAdmissionExpired is reported through a Handle when a SubmitWait
// submission was still queued for admission when its tenant class's
// Deadline elapsed. Matches errors.Is(err, context.DeadlineExceeded).
var ErrAdmissionExpired = core.ErrAdmissionExpired

// DefaultTenant is the name of the implicit admission class every engine
// has; Submit and SubmitWait admit through it.
const DefaultTenant = core.DefaultTenant

// TenantClass configures one admission class of a multi-tenant engine:
// a deficit-round-robin weight (contended admission capacity is split
// across backlogged classes in proportion to their weights), an optional
// per-class pending quota independent of the global MaxPending budget,
// and an optional admission deadline bounding how long the class's
// SubmitWait callers may queue (expired waiters fail with
// ErrAdmissionExpired, and earlier deadlines are admitted first among
// classes eligible in a round).
type TenantClass = core.TenantClass

// TenantStats is the per-class admission snapshot (Engine.TenantStats):
// Submitted/Admitted/Rejected/Canceled counters, the class's share of
// the admission-wait time, and the Pending/Waiting gauges. Once a class
// has no queued waiter, Submitted == Admitted + Rejected + Canceled.
type TenantStats = core.TenantStats

// PipelineReport summarizes a completed pipeline run.
type PipelineReport = core.PipelineReport

// Option configures NewEngine.
type Option func(*core.Options)

// Workers sets the number of scheduling workers P the engine starts with
// (default runtime.GOMAXPROCS(0)).
func Workers(p int) Option {
	return func(o *core.Options) { o.Workers = p }
}

// MinWorkers sets the floor of the elastic worker pool (default Workers).
// A surplus worker — live count above the floor — retires after sitting
// parked for the RetireAfter grace period, returning its core to the
// host; its residual queued frames transfer to the shared overflow list.
func MinWorkers(n int) Option {
	return func(o *core.Options) { o.MinWorkers = n }
}

// MaxWorkers sets the ceiling of the elastic worker pool (default
// Workers). The engine spawns workers up to the ceiling when work is
// published while every live worker is busy, or when the injection rings
// overflow. MinWorkers == MaxWorkers (the default) disables elasticity
// entirely: the scheduler is then the paper's fixed-P runtime, with no
// timers or scale checks on any hot path.
func MaxWorkers(n int) Option {
	return func(o *core.Options) { o.MaxWorkers = n }
}

// RetireAfter sets the idle grace period before a surplus worker retires
// (default 10ms). Only meaningful when MaxWorkers > MinWorkers.
func RetireAfter(d time.Duration) Option {
	return func(o *core.Options) { o.RetireAfter = d }
}

// MaxPending bounds the number of submitted pipelines admitted and not
// yet completed — the serving layer's backpressure budget (default 0,
// unlimited). When the budget is exhausted, Submit rejects immediately
// (Handle reports ErrSaturated) and SubmitWait queues until a slot
// frees, its context is done, its class admission deadline expires, or
// the engine closes. Queued submissions are admitted FIFO within a
// tenant class and weighted-fairly across classes (see Tenants).
func MaxPending(n int) Option {
	return func(o *core.Options) { o.MaxPending = n }
}

// Tenants configures the engine's admission classes for multi-tenant
// QoS. Each class has a DRR weight, an optional per-class pending quota,
// and an optional admission deadline (see TenantClass); submissions are
// routed to a class with Engine.SubmitTenant/SubmitWaitTenant, while
// plain Submit/SubmitWait use the always-present default class "".
// Under a contended MaxPending budget the admission queue guarantees
// that a backlogged class receives its weight's share of freed slots
// every round — one hot tenant can no longer starve the rest.
func Tenants(classes ...core.TenantClass) Option {
	return func(o *core.Options) { o.Tenants = append(o.Tenants, classes...) }
}

// Throttle sets the default throttling limit K for pipelines run on the
// engine (default 4·P). The paper uses 10P for ferret and 4P elsewhere.
func Throttle(k int) Option {
	return func(o *core.Options) { o.Throttle = k }
}

// DependencyFolding toggles the cached-predecessor-stage optimization
// (default on). Disable only for ablation measurements.
func DependencyFolding(enabled bool) Option {
	return func(o *core.Options) { o.DependencyFolding = enabled }
}

// LazyEnabling toggles lazy enabling (default on). When disabled, every
// stage advance eagerly checks and wakes the right neighbour.
func LazyEnabling(enabled bool) Option {
	return func(o *core.Options) { o.EagerEnabling = !enabled }
}

// TailSwap toggles the tail-swap rule at iteration completion
// (default on).
func TailSwap(enabled bool) Option {
	return func(o *core.Options) { o.TailSwap = enabled }
}

// Grain fixes the batched inline execution run length G (default 0,
// cost-bounded). A worker claims up to G consecutive
// iterations into one control frame and runs their bodies back-to-back
// through one recycled iteration frame, paying one frame acquisition and
// one deque release per batch instead of per iteration; the batch splits
// at the first iteration that must actually block, so promotion,
// cancellation, and serial-stage ordering semantics are unchanged.
// Grain(1) reproduces the unbatched per-iteration protocol exactly. A
// batch serializes its claimed run on one worker and keeps the stealable
// pipe_while continuation off the deques for all but its last slot, so a
// fixed grain above 1 is right only for bodies too cheap to be worth
// stealing. The default decides that per pipeline from what its
// iterations are measured to cost (one clock read per batch): under a
// few microseconds the claim doubles from 1 up to GrainMax, which
// amortizes the ~150 ns per-iteration protocol; above that the pipeline
// runs claim 1, the paper's protocol, and the continuation is released
// at every stage-0 exit. Instrumented (Profile*) and traced runs always
// execute with grain 1 so work/span accounting stays exact.
func Grain(g int) Option {
	return func(o *core.Options) { o.Grain = g }
}

// GrainMax caps the cost-bounded claim (default 64): the ceiling a
// pipeline of cheap iterations doubles up to, and so, with the few
// microseconds an iteration may cost and still batch, the longest a batch
// keeps the continuation to itself. Ignored when Grain fixes the run
// length.
func GrainMax(g int) Option {
	return func(o *core.Options) { o.GrainMax = g }
}

// CompilePlans toggles pipeline plan compilation (default on): each
// pipeline's first iteration runs under the interpreter with a trace
// recorder attached, and when it retires cleanly the recorded stage shape
// is compiled into a specialized execution plan — per-transition argument
// validation, instrumentation branches, and the fold-cache compare chain
// are hoisted out of the dispatch; adjacent short serial stages are
// fused so their boundary bookkeeping disappears entirely; and a
// recorded pure-serial body enables whole-batch retirement with one
// published completion and, when the recording shows it to be cheap,
// starts at the GrainMax claim instead of ramping up to it. An iteration
// whose transitions diverge from the recorded shape deopts the pipeline
// back to the interpreter mid-flight, so shape-unstable programs pay one
// retraction and nothing after. Semantics are identical in both modes —
// compiled dispatch preserves cross-edge ordering, throttling,
// cancellation, and the Grain(1) per-iteration protocol exactly — so
// disabling is only for ablation measurements.
// Plans require DependencyFolding and LazyEnabling (the ablations that
// disable those measure the interpreter) and are never compiled for
// instrumented (Profile*) runs.
func CompilePlans(enabled bool) Option {
	return func(o *core.Options) { o.CompilePlans = enabled }
}

// ArenaBuffers toggles the engine's recycled payload-buffer arena
// (default on). Engine.Arena hands pipeline stages recycled, cache-line-
// aligned, ref-counted byte regions that flow through stages by ownership
// hand-off (Retain on publish, Release at the consuming stage) instead of
// per-item allocation — the data-plane counterpart of frame pooling. When
// disabled, the arena keeps its full Ref API and leak gauges but never
// recycles: every Get allocates and every final Release goes to the GC,
// which is the ablation configuration for measuring what recycling buys.
func ArenaBuffers(enabled bool) Option {
	return func(o *core.Options) { o.ArenaBuffers = enabled }
}

// NewEngine starts a scheduler with the given options.
func NewEngine(opts ...Option) *Engine {
	o := core.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewEngine(o)
}

// Run executes one pipeline on a transient engine, for programs that do
// not need to amortize engine start-up.
func Run(cond func() bool, body func(*Iter), opts ...Option) {
	eng := NewEngine(opts...)
	defer eng.Close()
	eng.PipeWhile(cond, body)
}
