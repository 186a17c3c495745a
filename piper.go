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
// Iteration bodies run as direct calls on pooled coroutine runners and
// suspend only when a cross edge is really unsatisfied, and frames,
// runners and pipeline state are pooled for an allocation-free steady
// state; neither has a switch. Batching has none either: while a
// pipeline's iterations are measured to cost under a few microseconds, a
// worker claims runs of up to 64 consecutive iterations and runs their
// bodies back-to-back, paying one frame acquisition and one release of
// the stealable pipe_while continuation per run; costlier iterations run
// one at a time, the paper's protocol. Traced runs batch like untraced
// ones, so a trace shows the schedule the engine runs; profiled runs take
// the serial elision on the caller, so work/span accounting stays exact.
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

import "piper/internal/core"

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
// closed engine; a blocking launch there panics with an error matching it.
var ErrEngineClosed = core.ErrEngineClosed

// ErrSaturated is reported through a Handle when Submit finds the
// engine's pending-pipeline budget (MaxPending) or the tenant class's
// quota exhausted — the reject admission policy. SubmitWait queues for a
// slot instead.
var ErrSaturated = core.ErrSaturated

// ErrUnknownTenant is reported through a Handle when SubmitTenant or
// SubmitWaitTenant names a class the engine was not configured with.
var ErrUnknownTenant = core.ErrUnknownTenant

// DefaultTenant is the name of the implicit admission class every engine
// has; Submit and SubmitWait admit through it.
const DefaultTenant = core.DefaultTenant

// TenantClass configures one admission class of a multi-tenant engine:
// a deficit-round-robin weight (contended admission capacity is split
// across backlogged classes in proportion to their weights) and an
// optional per-class pending quota independent of the global MaxPending
// budget. How long a SubmitWait caller queues is bounded by its own
// context, as for any other blocking call.
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

// Workers sets the number of scheduling workers P, fixed for the engine's
// lifetime (default runtime.GOMAXPROCS(0)). An idle worker parks after a
// short spin and costs no CPU until work arrives.
func Workers(p int) Option {
	return func(o *core.Options) { o.Workers = p }
}

// MaxPending bounds the number of submitted pipelines admitted and not
// yet completed — the serving layer's backpressure budget (default 0,
// unlimited). When the budget is exhausted, Submit rejects immediately
// (Handle reports ErrSaturated) and SubmitWait queues until a slot
// frees, its context is done, or the engine closes. Queued submissions are admitted FIFO within a
// tenant class and weighted-fairly across classes (see Tenants).
func MaxPending(n int) Option {
	return func(o *core.Options) { o.MaxPending = n }
}

// Tenants configures the engine's admission classes for multi-tenant
// QoS. Each class has a DRR weight and an optional per-class pending
// quota (see TenantClass); submissions are
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
// stage advance eagerly checks and wakes the right neighbour. When enabled,
// a stage advance checks right only while a worker is parked: the paper's
// thieves never sleep and find a satisfied waiter by check-right on their
// victim, while a parked worker cannot, so the advancing one does it and
// wakes the sleeper (Stats.ParkedEnables counts those wakes).
func LazyEnabling(enabled bool) Option {
	return func(o *core.Options) { o.EagerEnabling = !enabled }
}

// TailSwap toggles the tail-swap rule at iteration completion
// (default on).
func TailSwap(enabled bool) Option {
	return func(o *core.Options) { o.TailSwap = enabled }
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
