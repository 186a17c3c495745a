package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"piper/internal/arena"
	"piper/internal/deque"
	"piper/internal/workload"
)

// Options configures an Engine. The ablation switches correspond to the
// runtime optimizations of Section 9 of the paper.
type Options struct {
	// Workers is the number of scheduling workers P the engine starts
	// with. Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// MinWorkers and MaxWorkers bound the elastic worker pool. The engine
	// spawns extra workers (up to MaxWorkers) when work is published while
	// the idle set is empty or when the injection rings overflow, and
	// retires surplus workers (down to MinWorkers) after they sit parked
	// for RetireAfter. Both default to Workers, which disables elasticity
	// and reproduces the fixed-P scheduler of the paper exactly: no timer
	// arms on the park path and no scale check runs on the signal path.
	MinWorkers int
	MaxWorkers int
	// RetireAfter is the idle grace period before a surplus worker (live
	// count above MinWorkers) retires. 0 means 10ms. Only consulted when
	// MaxWorkers > MinWorkers.
	RetireAfter time.Duration
	// MaxPending bounds the number of top-level pipelines admitted through
	// Submit/SubmitWait and not yet completed — the serving layer's
	// backpressure budget. 0 means unlimited. When the budget is
	// exhausted, Submit rejects immediately (the Handle reports
	// ErrSaturated) while SubmitWait blocks until a slot frees, its
	// context is done, or the engine closes. Blocking PipeWhile launches
	// are not admission-controlled: they already apply backpressure by
	// occupying their caller.
	MaxPending int
	// Tenants configures the engine's admission classes for multi-tenant
	// QoS (see TenantClass): per-class pending quotas, weighted-fair
	// (deficit round-robin) sharing of contended admission capacity, and
	// optional per-class admission deadlines. The default class "" always
	// exists (plain Submit/SubmitWait admit through it); listing a class
	// named "" re-tunes it. Empty means one undifferentiated class, the
	// pre-tenant behavior. Tenant classes without a MaxPending budget are
	// legal: admission then only enforces per-class quotas and keeps
	// per-class accounting.
	Tenants []TenantClass
	// Throttle is the default throttling limit K for pipelines started on
	// this engine; 0 means 4·P, the paper's recommended setting (with P
	// the pool ceiling MaxWorkers on an elastic engine).
	Throttle int
	// DependencyFolding enables the cached-stage-counter optimization
	// (on by default via DefaultOptions).
	DependencyFolding bool
	// EagerEnabling disables lazy enabling: every stage advance performs
	// a check-right immediately, not only while a worker is parked (see
	// frame.advance). For ablation only.
	EagerEnabling bool
	// TailSwap enables the tail-swap rule at iteration completion
	// (on by default via DefaultOptions).
	TailSwap bool
	// Grain fixes the batched inline execution run length G: a worker's
	// fast path claims up to G consecutive iterations into one control
	// frame and executes their bodies back-to-back through one pooled
	// iteration frame, paying one frame acquisition and one deque release
	// per batch instead of per iteration (see frame.runInlineBatch). The
	// batch splits at the first iteration that must actually block, so
	// promotion semantics, cancellation, and serial-stage ordering are
	// unchanged. Grain(1) reproduces the unbatched per-iteration protocol
	// exactly. 0 (the default) selects the cost-bounded claim: each
	// pipeline starts at 1 and, while its iterations are measured to cost
	// under coarseIterNs, doubles up to GrainMax; costlier iterations run
	// claim 1 (see pipeline.openBatch).
	Grain int
	// GrainMax caps the cost-bounded claim (0 means 64). Ignored when
	// Grain > 0 fixes the run length.
	GrainMax int
	// CompilePlans enables the pipeline plan compiler (on by default via
	// DefaultOptions; see plan.go): iteration 0 of each pipeline runs
	// under the interpreter with a trace recorder attached, and if it
	// retires cleanly its transition shape is compiled into a specialized
	// plan — fused short serial stages, a precomputed cross-edge wait
	// table, elided per-boundary checks, and a claim seed for cheap
	// serial bodies — that later iterations dispatch on, deoptimizing
	// back to the interpreter the moment any iteration diverges from the
	// recorded shape. Disable only for ablation: every iteration then
	// re-derives the stage structure per boundary, as in the previous
	// runtime. Plans are only compiled while DependencyFolding is on and
	// EagerEnabling is off (the compiled dispatch subsumes the fold cache
	// and checks right only while a worker is parked, like the
	// interpreter), and never for instrumented pipelines.
	CompilePlans bool
	// ArenaBuffers enables the engine's recycled payload-buffer arena
	// (on by default via DefaultOptions; see Engine.Arena and
	// internal/arena). Disable only for ablation: Engine.Arena then
	// returns a pass-through arena whose Get always allocates fresh
	// storage and whose Release hands it to the GC, with the full Ref
	// ownership API (and the LiveArenaBytes gauge) intact.
	ArenaBuffers bool

	// hooks is the test-only schedule-perturbation injection point (see
	// hooks.go). Always nil on production engines; settable only from
	// within this package, so the perturbation tests can widen the
	// interleaving space without exposing scheduling internals.
	hooks *schedHooks
}

// defaultGrainMax bounds the cost-bounded claim when GrainMax is unset. A
// full batch serializes G iterations on one worker between control-frame
// releases, so the ceiling trades amortization against how long the
// pipe_while continuation stays unstealable: at most G·coarseIterNs.
const defaultGrainMax = 64

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		Workers:           runtime.GOMAXPROCS(0),
		Throttle:          0,
		DependencyFolding: true,
		EagerEnabling:     false,
		TailSwap:          true,
		CompilePlans:      true,
		ArenaBuffers:      true,
	}
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	// Elastic bounds: both default to Workers (a fixed pool). MaxWorkers
	// resolves first and caps the MinWorkers default, so an explicit
	// ceiling below the (possibly defaulted) Workers is honored — it
	// shrinks the pool rather than being silently raised by the Min
	// default. An explicit Min > Max still wins (the floor is a promise),
	// and the initial count is clamped into [MinWorkers, MaxWorkers] so
	// every combination of the three knobs yields a consistent pool.
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = o.Workers
	}
	if o.MinWorkers <= 0 {
		o.MinWorkers = o.Workers
		if o.MinWorkers > o.MaxWorkers {
			o.MinWorkers = o.MaxWorkers
		}
	}
	if o.MaxWorkers < o.MinWorkers {
		o.MaxWorkers = o.MinWorkers
	}
	if o.Workers < o.MinWorkers {
		o.Workers = o.MinWorkers
	}
	if o.Workers > o.MaxWorkers {
		o.Workers = o.MaxWorkers
	}
	if o.RetireAfter <= 0 {
		o.RetireAfter = 10 * time.Millisecond
	}
	if o.Throttle <= 0 {
		// 4·P, the paper's recommended setting — with P the pool ceiling,
		// not the initial count: an elastic engine that scaled to
		// MaxWorkers must not have its pipelines window-bound at 4× the
		// (possibly much smaller) starting size. Fixed pools are
		// unaffected (MaxWorkers == Workers).
		o.Throttle = 4 * o.MaxWorkers
	}
	if o.MaxPending < 0 {
		o.MaxPending = 0
	}
	if o.Grain < 0 {
		o.Grain = 0
	}
	if o.Grain > 0 {
		// A fixed grain is its own ceiling, so reports and the adaptive
		// policy share one invariant: grain never exceeds GrainMax.
		o.GrainMax = o.Grain
	} else if o.GrainMax <= 0 {
		o.GrainMax = defaultGrainMax
	}
}

// elastic reports whether the worker pool can change size at all.
func (o *Options) elastic() bool { return o.MaxWorkers > o.MinWorkers }

// injectRingCap is the per-worker injection ring capacity. Root-frame
// injection is one event per top-level pipeline, so overflow — which
// falls back to a mutex-guarded list — is effectively unreachable outside
// adversarial burst tests.
const injectRingCap = 64

// Engine is a PIPER work-stealing scheduler instance: P workers, each with
// a work-stealing deque and an injection ring, executing pipeline programs
// submitted through PipeWhile.
//
// The pool is elastic between Options.MinWorkers and Options.MaxWorkers:
// workers is a fixed slot array of MaxWorkers entries allocated up front,
// and each slot is either live (its goroutine runs the scheduling loop) or
// dormant. Slots are never added or removed, so thieves sweep the array
// with no synchronization and a shard's injection ring never deregisters:
// producers merely skip dormant shards, and any frame that races into one
// stays reachable through the ordinary steal sweep (see worker.pollWork).
type Engine struct {
	opts    Options
	workers []*worker // MaxWorkers slots; liveN of them are running
	stats   statCounters
	pools   framePools

	// arena is the engine's payload-buffer arena (see Engine.Arena):
	// recycled, cache-aligned, ref-counted regions the data-plane
	// workloads flow through pipeline stages. Immutable after NewEngine.
	arena *arena.Arena

	// canGrow caches opts.elastic(): checked on the signal path when the
	// idle set is empty, a plain immutable bool so the fixed-P fast path
	// pays nothing for elasticity.
	canGrow bool

	// Hot cross-worker words, padded apart from each other and from the
	// mutex-guarded cold state around them: injectRR is bumped by every
	// producer, idle is loaded by every pushWork (via signal) and written
	// on park/unpark, spinners (the workers in their pre-park spin) is
	// written twice per spin, and overflowN is polled by every work scan.
	// Sharing a line among them — or with idleMu, whose lock word churns
	// whenever a worker parks — would make each writer invalidate every
	// reader.
	_         cacheLinePad
	injectRR  atomic.Uint32
	_         cacheLinePad
	idle      atomic.Int64
	_         cacheLinePad
	spinners  atomic.Int32
	_         cacheLinePad
	overflowN atomic.Int32
	_         cacheLinePad
	// liveN is the live-worker gauge. Written only under scaleMu (spawn
	// and retire are rare events); read lock-free on the scale checks.
	liveN atomic.Int32
	_     cacheLinePad

	// scaleMu serializes worker spawn and retire decisions. It is never
	// taken on a scheduling fast path — only when the pool actually
	// changes size, so contention is bounded by the scale event rate.
	scaleMu sync.Mutex

	// Root-frame injection is sharded: each worker owns a lock-free MPMC
	// ring (see deque.Inject) that producers fill round-robin; rings that
	// are full spill into the mutex-guarded overflow list. Any worker may
	// drain any ring, so injected work is never stranded behind a busy
	// shard owner.
	overflowMu sync.Mutex
	overflow   []*frame

	// Parking is event-driven: a worker that finds no work registers in
	// the idle set and blocks on its private park channel; every signal
	// claims exactly one idle worker and hands it a wake token, so a burst
	// of N injections wakes min(N, idle) distinct workers and no wakeup is
	// ever lost (the old single-slot wake channel could drop them, only
	// bounding the damage by polling).
	idleMu      sync.Mutex
	idleWorkers []*worker

	// submitMu orders root-frame injection against Close: injectors hold
	// the read side across the closed check and the inject, Close takes
	// the write side to flip closed, so every frame published to a ring
	// happens-before the closed flag — the final drain scan in findWork
	// is ordered after that flag and therefore misses nothing. Without
	// this, a Submit racing Close could strand a queued pipeline and its
	// Handle.Wait would hang forever.
	submitMu sync.RWMutex
	closed   atomic.Bool
	wg       sync.WaitGroup

	// adm is the admission queue (see admission.go): nil when the engine
	// has neither a MaxPending budget nor tenant classes — submissions
	// then skip admission entirely, as before. Otherwise every
	// Submit/SubmitWait acquires a slot from its tenant class here, and
	// finishTopLevel releases it at pipeline completion, waking queued
	// SubmitWait callers in weighted-fair order.
	adm *admitter

	// tracing enables per-segment event capture (see trace.go).
	tracing atomic.Bool

	// hooks is copied from Options at construction; nil on every
	// production engine (see hooks.go). Immutable, so the hot-path guard
	// is one predictable branch.
	hooks *schedHooks
}

// NewEngine starts an engine with the given options.
func NewEngine(opts Options) *Engine {
	opts.normalize()
	e := &Engine{
		opts:    opts,
		canGrow: opts.elastic(),
		hooks:   opts.hooks,
		arena:   arena.New(opts.ArenaBuffers),
	}
	e.adm = newAdmitter(e, &opts)
	e.workers = make([]*worker, opts.MaxWorkers)
	for i := range e.workers {
		e.workers[i] = &worker{
			eng:    e,
			id:     i,
			deque:  deque.New[frame](64),
			inbox:  deque.NewInject[frame](injectRingCap),
			parkCh: make(chan struct{}, 1),
			rng:    workload.NewRNG(uint64(i)*0x9e3779b9 + 1),
		}
		e.workers[i].takeoverFn = e.workers[i].takeover
	}
	for i := 0; i < opts.Workers; i++ {
		e.workers[i].state.Store(workerLive)
	}
	e.liveN.Store(int32(opts.Workers))
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		//piper:allow-go accounted: the wg.Add above pairs with loop's deferred wg.Done, drained by Close
		go e.workers[i].loop()
	}
	return e
}

// maybeSpawn wakes a dormant worker slot if the pool may still grow. The
// lock-free gate makes the call free once the pool is at MaxWorkers (and
// the caller already gated on canGrow, so fixed-P engines never get here).
func (e *Engine) maybeSpawn() {
	if int(e.liveN.Load()) >= e.opts.MaxWorkers || e.closed.Load() {
		return
	}
	e.scaleMu.Lock()
	defer e.scaleMu.Unlock()
	// Re-check under the lock; Close may have flipped in between. A spawn
	// is safe against Close's wg.Wait: either the caller holds the read
	// side of submitMu with closed still false (injection paths), so the
	// whole spawn happens-before the flag flips, or the caller is a live
	// worker whose own WaitGroup slot keeps the counter positive.
	if e.closed.Load() || int(e.liveN.Load()) >= e.opts.MaxWorkers {
		return
	}
	for _, w := range e.workers {
		if w.state.Load() == workerDormant {
			w.state.Store(workerLive)
			e.liveN.Add(1)
			e.stats.workerSpawns.Add(1)
			e.wg.Add(1)
			//piper:allow-go accounted: the wg.Add above pairs with loop's deferred wg.Done, drained by Close
			go w.loop()
			return
		}
	}
}

// retire commits worker w's retirement after its idle grace expired: it
// reports false (and the worker keeps running) if the pool is already at
// MinWorkers or the engine is closing. On success the slot flips dormant —
// producers stop choosing its injection ring — and any residual frames in
// its deque or ring transfer to the overflow list, where every live
// worker's scan finds them. Frames a stale-live producer races into the
// dormant ring afterwards stay reachable too: the steal sweep covers
// dormant slots, and the producer's own signal wakes a worker to run it.
func (e *Engine) retire(w *worker) bool {
	e.scaleMu.Lock()
	if e.closed.Load() || int(e.liveN.Load()) <= e.opts.MinWorkers {
		e.scaleMu.Unlock()
		return false
	}
	w.state.Store(workerDormant)
	e.liveN.Add(-1)
	e.stats.workerRetires.Add(1)
	// Drain before releasing scaleMu: maybeSpawn can reactivate this slot
	// the instant the lock drops, and the respawned goroutine would then
	// Pop the deque concurrently with this drain — deque.Pop is
	// owner-only. Under the lock the slot cannot gain a new owner. The
	// drain is short: the deque is empty in practice (this worker parked
	// only after a full scan found nothing) and the ring holds at most
	// injectRingCap racy leftovers.
	var moved []*frame
	for {
		f := w.deque.Pop()
		if f == nil {
			break
		}
		moved = append(moved, f)
	}
	w.inbox.Drain(func(f *frame) { moved = append(moved, f) })
	if len(moved) > 0 {
		e.overflowMu.Lock()
		e.overflow = append(e.overflow, moved...)
		e.overflowN.Add(int32(len(moved)))
		e.overflowMu.Unlock()
	}
	e.scaleMu.Unlock()
	if len(moved) > 0 {
		e.signal()
	}
	return true
}

// Options reports the engine's (normalized) configuration.
func (e *Engine) Options() Options { return e.opts }

// Workers reports the initial worker count P. An elastic engine's current
// pool size is Stats().LiveWorkers.
func (e *Engine) Workers() int { return e.opts.Workers }

// Arena returns the engine's payload-buffer arena: recycled, cache-line-
// aligned, ref-counted byte regions that pipeline stages pass by hand-off
// instead of copying (see internal/arena for the ownership contract).
// With Options.ArenaBuffers disabled the arena is a pass-through whose
// ownership API still works but which never recycles — the ablation
// configuration. The arena's gauges surface in Stats as LiveArenaBytes,
// ArenaBytesRecycled, and the ArenaGets/Puts/Misses counters.
func (e *Engine) Arena() *arena.Arena { return e.arena }

// statGauges is the vector of point-in-time gauges Stats reads alongside
// the monotone counters, comparable so the stability loop below can
// detect a torn read pass.
type statGauges struct {
	poolHits, poolMisses              int64
	liveIter, liveClosure, livePipes  int64
	liveWorkers, pendingAdmitted      int64
	arenaLive, arenaRecycled          int64
	arenaGets, arenaPuts, arenaMisses int64
}

func (e *Engine) readGauges() statGauges {
	g := statGauges{
		poolHits:    e.pools.hits.Load(),
		poolMisses:  e.pools.misses.Load(),
		liveIter:    e.pools.liveIter.Load(),
		liveClosure: e.pools.liveClosure.Load(),
		livePipes:   e.pools.livePipeline.Load(),
		liveWorkers: int64(e.liveN.Load()),
	}
	if e.adm != nil {
		g.pendingAdmitted = e.adm.totalGauge.Load()
	}
	ac := e.arena.Stats()
	g.arenaLive = ac.LiveBytes
	g.arenaRecycled = ac.RecycledBytes
	g.arenaGets = ac.Gets
	g.arenaPuts = ac.Puts
	g.arenaMisses = ac.Misses
	return g
}

// Stats returns a snapshot of the scheduler counters and gauges.
//
// Consistency contract: the monotone event counters are each exact at
// their own read instant (they only ever grow within an engine lifetime).
// The gauges — Live*Frames, LiveWorkers, PendingAdmitted, and the arena
// fields — describe a single instant only when that instant is stable:
// they are read through a bounded double-read loop that retries until two
// consecutive passes over the whole gauge vector agree, so a snapshot
// taken concurrently with scheduling activity can no longer pair, say, a
// pre-cancellation LiveIterFrames with a post-cancellation
// LiveArenaBytes merely because the fields were read microseconds apart.
// Under sustained churn the loop gives up after a few attempts and
// returns the last full pass — individually atomic, collectively
// best-effort. On a quiescent engine (every pipeline completed or every
// Handle waited) one pass is stable by construction and the gauges are
// exact; the leak-check invariants (live gauges all zero) are asserted
// only in that state.
func (e *Engine) Stats() Stats {
	g := e.readGauges()
	for range 4 {
		h := e.readGauges()
		if h == g {
			break
		}
		g = h
	}
	s := e.stats.snapshot()
	s.FramePoolHits = g.poolHits
	s.FramePoolMisses = g.poolMisses
	s.LiveIterFrames = g.liveIter
	s.LiveClosureFrames = g.liveClosure
	s.LivePipelines = g.livePipes
	s.LiveWorkers = g.liveWorkers
	s.PendingAdmitted = g.pendingAdmitted
	s.LiveArenaBytes = g.arenaLive
	s.ArenaBytesRecycled = g.arenaRecycled
	s.ArenaGets = g.arenaGets
	s.ArenaPuts = g.arenaPuts
	s.ArenaMisses = g.arenaMisses
	return s
}

// Close shuts the engine down. It must not be called while pipelines are
// still running (Wait every outstanding Handle first). A Submit or
// PipeWhile launch racing Close either completes normally (the last
// exiting worker drains it) or observes the closed engine; its work is
// never silently stranded.
func (e *Engine) Close() {
	e.submitMu.Lock()
	closing := e.closed.CompareAndSwap(false, true)
	e.submitMu.Unlock()
	if !closing {
		return
	}
	// Release SubmitWait callers queued for admission before waking the
	// workers: a waiter admitted after this point would inject into a
	// closing engine, and one left queued would never return. The
	// admitter fails each with ErrEngineClosed and refuses later
	// enqueues under the same mutex, so no waiter can slip in between.
	if e.adm != nil {
		e.adm.close()
	}
	// Wake every parked worker: each observes the closed flag, runs a
	// final drain scan (ordered after the flag, hence after every
	// successful inject), and exits once no work remains. Workers that
	// race past the sweep re-check the flag before parking.
	//
	// Wake-loop robustness audit (close-under-churn): the send below can
	// never block and no token is ever lost, because claim and delivery
	// pair one-to-one. parkCh has capacity 1 and a worker is claimable
	// only while registered in the idle set; a worker that un-idles
	// between our claimIdle and this send has left through cancelIdle,
	// which (not finding itself registered) blocks absorbing exactly this
	// token. A worker that registers after the sweep drained the set
	// re-checks the closed flag — ordered after its registration, and the
	// flag flipped before the sweep began — and self-cancels, so it can
	// neither park forever nor leave a claimed-but-untokened slot behind.
	// Elastic pools add one more un-idle transition, the retire timer:
	// its cancelIdle likewise absorbs an in-flight token and treats the
	// timeout as an ordinary wake, and retire() itself refuses once the
	// closed flag is up, so a retiring worker always reaches the ordinary
	// drain-and-exit path. TestCloseUnderChurn exercises all three races.
	for {
		w := e.claimIdle()
		if w == nil {
			break
		}
		w.parkCh <- struct{}{}
	}
	e.wg.Wait()
}

// PipeWhile executes an on-the-fly pipeline: while cond() reports true, an
// iteration running body is started. cond and the stage-0 prefix of body
// (everything before the iteration's first Wait or Continue) execute
// serially in iteration order; later stages run in parallel subject to the
// cross edges declared by Wait. PipeWhile blocks until the pipeline
// completes, and re-panics in the caller if any iteration panicked.
func (e *Engine) PipeWhile(cond func() bool, body func(*Iter)) {
	e.PipeWhileThrottled(e.opts.Throttle, cond, body)
}

// PipeWhileThrottled is PipeWhile with an explicit throttling limit K,
// overriding the engine default (the paper uses K=10P for ferret and K=4P
// elsewhere).
func (e *Engine) PipeWhileThrottled(k int, cond func() bool, body func(*Iter)) {
	e.RunPipeline(k, cond, body)
}

// PipelineReport summarizes one completed pipe_while execution.
type PipelineReport struct {
	// Iterations is the number of iterations the pipeline ran.
	Iterations int64
	// MaxLiveIterations is the peak count of simultaneously live
	// iteration frames — the space quantity the throttling limit bounds
	// (Theorems 11 and 13).
	MaxLiveIterations int64
	// FinalThrottle is the throttling limit at completion (interesting
	// only for RunPipelineAdaptive).
	FinalThrottle int64
	// FinalGrain is the batched-execution run length G at completion: the
	// fixed Options.Grain, or the cost-bounded policy's last claim (see
	// pipeline.openBatch). 1 for serial runs.
	FinalGrain int64
	// WorkNs and SpanNs are the measured work T1 and span T∞ of the
	// pipeline dag in nanoseconds, populated only by ProfilePipeline
	// (the Cilkview analogue; see instrument.go for the measurement
	// semantics: span is an upper bound, so Parallelism is a lower
	// bound).
	WorkNs, SpanNs int64
	// PlanCompiled reports whether iteration 0's recorded shape sealed a
	// compiled execution plan (see plan.go). False when
	// Options.CompilePlans is off, for instrumented runs, and when the
	// recording was cut short by a panic, an abort, or a transition-count
	// overflow.
	PlanCompiled bool
	// PlanStages is the compiled plan's node count (the recorded stage-0
	// prefix plus one node per transition); 0 when no plan was sealed.
	PlanStages int64
	// PlanFusedStages counts the plan's fused transitions — interior
	// pipe_continue boundaries between short stages elided at dispatch.
	PlanFusedStages int64
	// PlanDeopts counts retractions of this pipeline's plan: an
	// iteration's transitions diverged from the recorded shape and the
	// pipeline fell back to the interpreter (at most 1 per run; the
	// field is a count for symmetry with Stats.PlanDeopts).
	PlanDeopts int64
}

// Parallelism returns the measured T1/T∞, or 0 for uninstrumented runs.
func (r PipelineReport) Parallelism() float64 {
	if r.SpanNs <= 0 {
		return 0
	}
	return float64(r.WorkNs) / float64(r.SpanNs)
}

// RunPipeline is PipeWhileThrottled returning a space/shape report.
func (e *Engine) RunPipeline(k int, cond func() bool, body func(*Iter)) PipelineReport {
	return e.runPipeline(k, false, cond, body)
}

// ProfilePipeline runs the pipeline with work/span instrumentation
// enabled, measuring the dag's T1 and T∞ like the modified Cilkview
// analyzer of Section 10. Instrumentation costs two clock reads per
// pipeline node.
func (e *Engine) ProfilePipeline(k int, cond func() bool, body func(*Iter)) PipelineReport {
	return e.runPipeline(k, true, cond, body)
}

func (e *Engine) runPipeline(k int, instrument bool, cond func() bool, body func(*Iter)) PipelineReport {
	pl := e.newPipeline(k, cond, body, 1)
	pl.instrument = instrument
	return e.launch(pl)
}

// RunPipelineAdaptive runs a pipeline whose throttling window adapts
// within [kMin, kMax]: it grows (doubling) whenever the pipeline is
// window-bound while workers sit idle, and shrinks when the window is
// mostly unused. This explores the throughput/space trade-off of
// Section 11: on uniform pipelines it behaves like K = kMin, and on the
// Figure 10 pathology it buys the speedup that a fixed Θ(P) window
// provably cannot, at a space cost the report makes visible.
func (e *Engine) RunPipelineAdaptive(kMin, kMax int, cond func() bool, body func(*Iter)) PipelineReport {
	if kMin < 1 {
		kMin = 1
	}
	if kMax < kMin {
		kMax = kMin
	}
	pl := e.newPipeline(kMin, cond, body, 1)
	pl.kMax = int64(kMax)
	return e.launch(pl)
}

func (e *Engine) launch(pl *pipeline) PipelineReport {
	pl.done = make(chan struct{})
	e.submitMu.RLock()
	if e.closed.Load() {
		e.submitMu.RUnlock()
		panic("piper: PipeWhile on closed engine")
	}
	e.inject(pl.control)
	e.submitMu.RUnlock()
	<-pl.done
	rep := pl.report()
	pb := pl.panicVal.Load()
	e.releasePipeline(pl)
	if pb != nil {
		panic(pb.v)
	}
	return rep
}

// PipeWhile starts a pipeline nested inside the current iteration; the
// iteration suspends until the nested pipeline completes. Nested pipelines
// may not be started from stage 0 (the serial prologue).
func (it *Iter) PipeWhile(cond func() bool, body func(*Iter)) {
	if it.f.serial {
		RunSerial(cond, body)
		return
	}
	it.PipeWhileThrottled(it.f.eng.opts.Throttle, cond, body)
}

// PipeWhileThrottled is the nested PipeWhile with an explicit throttle.
func (it *Iter) PipeWhileThrottled(k int, cond func() bool, body func(*Iter)) {
	f := it.f
	if f.serial {
		RunSerial(cond, body) // serial elision applies recursively
		return
	}
	if f.inStage0 {
		panic("piper: nested pipelines may not be started from stage 0")
	}
	pl := f.eng.newPipeline(k, cond, body, f.pl.depth+1)
	// A nested pipeline inherits the root submission's cancellation word,
	// so canceling a Submit tears down the whole pipeline tree.
	pl.abort = f.pl.abort
	sc := &scope{owner: f}
	sc.join.Store(1)
	pl.parent = sc
	f.w.pushWork(pl.control)
	f.syncScope(sc)
	pb := pl.panicVal.Load()
	f.eng.releasePipeline(pl)
	if pb != nil {
		// Record under the nested pipeline's original stack before
		// rethrowing, so a Handle's *PanicError names the true panic
		// site, not this propagation point.
		f.pl.recordPanicStack(pb.v, pb.stack)
		panic(pb.v)
	}
	// The nested pipeline observed the abort and drained; unwind the
	// enclosing iteration too rather than resuming its body.
	f.abortCheck()
}

func (e *Engine) newPipeline(k int, cond func() bool, body func(*Iter), depth int) *pipeline {
	if k <= 0 {
		k = e.opts.Throttle
	}
	// The control frame is a plain state-machine frame: workers execute
	// pl.step directly, with no coroutine behind it. It recycles together
	// with its pipeline (see pool.go).
	pl := e.acquirePipeline()
	pl.cond, pl.body, pl.depth = cond, body, depth
	pl.K.Store(int64(k))
	pl.kMin, pl.kMax = int64(k), int64(k)
	e.stats.pipelines.Add(1)
	return pl
}

// inject queues a root frame for any worker to pick up: round-robin over
// the live per-worker injection rings, spilling to the overflow list only
// when every live ring is full. A spill is a scale-up trigger: the live
// workers are not draining their rings fast enough, so an elastic engine
// wakes another slot.
func (e *Engine) inject(f *frame) {
	if h := e.hooks; h != nil && h.forceOverflow != nil && h.forceOverflow() {
		// Perturbation: skip the rings and take the overflow spill path, as
		// if every live ring were full.
		e.spillOverflow(f)
		return
	}
	n := uint32(len(e.workers))
	start := e.injectRR.Add(1)
	for i := uint32(0); i < n; i++ {
		w := e.workers[(start+i)%n]
		if e.canGrow && w.state.Load() != workerLive {
			continue
		}
		if w.inbox.Offer(f) {
			e.stats.injects.Add(1)
			e.signal()
			return
		}
	}
	e.spillOverflow(f)
}

// spillOverflow publishes an injected root frame through the mutex-guarded
// overflow list — the every-ring-full fallback, also a scale-up trigger
// (the live workers are not draining their rings fast enough). Shared by
// the real full-ring path and the forceOverflow perturbation hook so the
// two can never drift apart.
func (e *Engine) spillOverflow(f *frame) {
	e.overflowMu.Lock()
	e.overflow = append(e.overflow, f)
	e.overflowN.Add(1)
	e.overflowMu.Unlock()
	e.stats.injects.Add(1)
	e.stats.injectOverflows.Add(1)
	if e.canGrow {
		e.maybeSpawn()
	}
	e.signal()
}

// popOverflow drains one frame from the injection overflow list. The
// atomic emptiness hint keeps the mutex off the common path.
func (e *Engine) popOverflow() *frame {
	if e.overflowN.Load() == 0 {
		return nil
	}
	e.overflowMu.Lock()
	defer e.overflowMu.Unlock()
	if len(e.overflow) == 0 {
		return nil
	}
	f := e.overflow[0]
	copy(e.overflow, e.overflow[1:])
	e.overflow[len(e.overflow)-1] = nil
	e.overflow = e.overflow[:len(e.overflow)-1]
	e.overflowN.Add(-1)
	return f
}

// signal wakes exactly one parked worker, if any. Pairs with the
// register-then-rescan protocol in findWork: the caller has already made
// its work visible (ring/deque/overflow publication happens-before the
// idle load), so either this load observes the parked worker, or the
// worker's rescan observes the work.
func (e *Engine) signal() {
	if e.idle.Load() == 0 {
		// Work is queued but no worker is parked to take it, nor sweeping
		// for it in its pre-park spin — the other scale-up trigger. canGrow
		// is an immutable bool, so fixed-P engines pay one predictable
		// branch here and nothing more.
		if e.canGrow && e.spinners.Load() == 0 {
			e.maybeSpawn()
		}
		return
	}
	if w := e.claimIdle(); w != nil {
		e.stats.wakes.Add(1)
		w.parkCh <- struct{}{}
	}
}

// claimIdle pops one worker from the idle set. The caller must send the
// claimed worker its wake token.
func (e *Engine) claimIdle() *worker {
	e.idleMu.Lock()
	defer e.idleMu.Unlock()
	n := len(e.idleWorkers)
	if n == 0 {
		return nil
	}
	w := e.idleWorkers[n-1]
	e.idleWorkers[n-1] = nil
	e.idleWorkers = e.idleWorkers[:n-1]
	e.idle.Add(-1)
	return w
}

// registerIdle publishes w as parked. Must precede the caller's final
// work rescan.
func (e *Engine) registerIdle(w *worker) {
	e.idleMu.Lock()
	e.idleWorkers = append(e.idleWorkers, w)
	e.idle.Add(1)
	e.idleMu.Unlock()
}

// cancelIdle withdraws w after its pre-park rescan found work (or its
// retire timer fired). If a waker already claimed w, its wake token is in
// flight; absorb it so the next park does not wake spuriously. The return
// value reports that absorption: true means a wake was racing in, which
// the retire path must treat as an ordinary wake rather than proceed to
// retire a worker somebody just handed work to.
func (e *Engine) cancelIdle(w *worker) bool {
	e.idleMu.Lock()
	found := false
	for i, x := range e.idleWorkers {
		if x == w {
			last := len(e.idleWorkers) - 1
			e.idleWorkers[i] = e.idleWorkers[last]
			e.idleWorkers[last] = nil
			e.idleWorkers = e.idleWorkers[:last]
			e.idle.Add(-1)
			found = true
			break
		}
	}
	e.idleMu.Unlock()
	if !found {
		<-w.parkCh
		return true
	}
	return false
}

// tryWakeRight performs PIPER's check-right on behalf of iteration f: if
// iteration f.index+1 is parked on a cross edge that f's progress has
// satisfied, claim it. The caller must deliver the returned frame. Run at
// segment boundaries, by thieves (stealFrom), and by frame.advance.
func (e *Engine) tryWakeRight(f *frame) *frame {
	nxt := f.next.Load()
	if nxt == nil || nxt.status.Load() != statusWaitCross {
		return nil
	}
	j := nxt.waitStage.Load()
	if f.stage.Load() > j && nxt.status.CompareAndSwap(statusWaitCross, statusRunning) {
		return nxt
	}
	return nil
}

// --- worker ---------------------------------------------------------------

// Worker slot states. A dormant slot has no goroutine: its deque is empty
// (drained at retirement; only the owner pushes) and its injection ring is
// skipped by producers but still polled by every thief's sweep, so a frame
// that races into it is never stranded.
const (
	workerDormant int32 = iota
	workerLive
)

type worker struct {
	eng    *Engine
	id     int
	deque  *deque.Deque[frame]
	inbox  *deque.Inject[frame]
	parkCh chan struct{}
	rng    *workload.RNG
	// state is the slot's live/dormant word, written only under the
	// engine's scaleMu and read lock-free by producers choosing a ring.
	state atomic.Int32
	// retireTimer is the reusable idle-grace timer armed by parkAwait for
	// surplus workers. Touched only by the goroutine holding the worker
	// role, and only on the park path, so reuse needs no synchronization;
	// lazily allocated so fixed-P engines (and floor workers) never carry
	// one.
	retireTimer *time.Timer
	// promoted hands the frame of a promoting iteration to the takeover
	// goroutine, and takeoverFn is w.takeover bound once: a go statement
	// with arguments allocates a closure, and a coarse pipeline at claim 1
	// promotes on most of its iterations. Only the goroutine holding the
	// worker role promotes, and the role moves on only once takeover has
	// read the field, so one slot per worker suffices.
	promoted   *frame
	takeoverFn func()

	// assigned is loaded by every thief's sweep (the check-right on a
	// victim's running iteration) and stored twice per executed segment by
	// the owner; padding keeps those stores off the lines holding the
	// read-mostly fields above and the trace state below.
	_        cacheLinePad
	assigned atomic.Pointer[frame]
	_        cacheLinePad

	// events is the worker's trace buffer (see trace.go).
	eventsMu sync.Mutex
	events   []traceEvent
}

// The worker role is not pinned to a goroutine: when an inline iteration
// promotes (see frame.promote), the goroutine holding the role becomes
// that frame's coroutine runner and a takeover goroutine inherits the
// role — together with the WaitGroup slot, which is released exactly once,
// by whichever goroutine holds the role when the engine closes.

func (w *worker) loop() {
	w.run(nil)
}

// run drives worker w's scheduling loop on the calling goroutine, seeded
// with an optional first frame, until the engine closes or the goroutine
// promotes away (execute returns false; the takeover goroutine now owns
// the role, so this one must unwind without touching w again).
func (w *worker) run(f *frame) {
	for {
		if f == nil {
			f = w.findWork()
			if f == nil {
				w.eng.wg.Done()
				return // engine closed, or this worker retired
			}
		}
		if !w.execute(f) {
			return // promoted away
		}
		f = nil
	}
}

// takeover assumes worker w's scheduling role after the goroutine that
// held it promoted itself into iteration frame f's coroutine runner. It
// starts exactly where execute stood mid-driveSegment: as f's driver,
// blocked on the yield channel. If the promoted iteration's blocking
// condition resolved during the park protocol's recheck, that receive
// simply blocks until the body's next suspension or completion — the
// ordinary driver contract — and w.assigned keeps pointing at f so
// thieves can check-right it meanwhile.
func (w *worker) takeover() {
	f := w.promoted
	msg := <-f.co.yield
	w.assigned.Store(nil)
	var nf *frame
	switch msg.kind {
	case ySuspend:
		nf = w.afterSuspend(f)
	case yDone:
		nf = w.afterDone(f)
	default:
		panic("piper: unexpected yield during takeover")
	}
	w.run(nf)
}

// pushWork makes f stealable on w's deque. Safe to call from the worker's
// goroutine or from the coroutine segment it is currently driving.
func (w *worker) pushWork(f *frame) {
	w.deque.Push(f)
	w.eng.signal()
}

// execute drives frames until the worker runs out of local work, following
// PIPER's assigned-vertex rules at frame granularity. It reports whether
// the calling goroutine still holds the worker role: false means an
// iteration promoted underneath a control step and this goroutine already
// finished serving as its coroutine runner — the takeover goroutine owns
// w now, so the caller must unwind without touching it.
func (w *worker) execute(f *frame) bool {
	for f != nil {
		traceStart := int64(0)
		tracing := w.eng.tracing.Load()
		var traceKind frameKind
		var traceIndex int64
		if tracing {
			// Snapshot before driving: after a suspend the frame may
			// belong to a waker (and, pooled, even be recycled), so it
			// must not be dereferenced afterwards.
			traceStart, traceKind, traceIndex = nowNs(), f.kind, f.index
		}
		switch f.kind {
		case kindClosure:
			w.eng.stats.closureTasks.Add(1)
			runClosureTask(f, w)
			w.traceSegment(tracing, traceKind, traceIndex, traceStart)
			f = w.afterClosure(f)

		case kindControl:
			w.assigned.Store(f)
			msg := f.pl.step(f, w)
			if msg.kind == yPromoted {
				return false
			}
			w.assigned.Store(nil)
			w.traceSegment(tracing, traceKind, traceIndex, traceStart)
			switch msg.kind {
			case yInlineDone:
				// An iteration ran to completion inline after releasing
				// the control frame mid-body; retire it here. The control
				// frame is on a deque (or already stepping elsewhere), so
				// f itself must not be touched again.
				f = w.afterDone(msg.child)
			case ySuspend:
				// Parked (throttled or syncing): the frame may already
				// belong to a waker; do not touch it again.
				f = w.deque.Pop()
			case yDone:
				f = w.afterDone(f)
			}

		default: // kindIter
			w.assigned.Store(f)
			msg := f.driveSegment(w)
			w.assigned.Store(nil)
			w.traceSegment(tracing, traceKind, traceIndex, traceStart)
			switch msg.kind {
			case ySuspend:
				f = w.afterSuspend(f)
			case yDone:
				f = w.afterDone(f)
			default:
				panic("piper: unexpected yield at worker level")
			}
		}
	}
	return true
}

// afterSuspend applies lazy enabling when a segment parks: check right on
// the suspended iteration, then fall back to the local deque.
func (w *worker) afterSuspend(f *frame) *frame {
	if f.kind == kindIter {
		if nxt := w.eng.tryWakeRight(f); nxt != nil {
			w.eng.stats.lazyEnables.Add(1)
			return nxt
		}
	}
	return w.deque.Pop()
}

// afterDone retires a finished frame and selects the next assigned frame:
// check right, check parent (throttle release / final sync), tail swap.
func (w *worker) afterDone(f *frame) *frame {
	switch f.kind {
	case kindIter:
		right := w.eng.tryWakeRight(f)
		if right != nil {
			w.eng.stats.lazyEnables.Add(1)
		}
		ctrl := f.pl.onIterReturn()
		f.next.Store(nil)
		f.unref() // drop the scheduler's reference; f may now recycle
		switch {
		case right != nil && ctrl != nil:
			if w.eng.opts.TailSwap {
				// Tail swap: stay on the consecutive iteration for
				// locality; the enabled control frame goes to the deque
				// where it is immediately stealable (Lemma 4).
				w.eng.stats.tailSwaps.Add(1)
				w.pushWork(ctrl)
				return right
			}
			w.pushWork(right)
			return ctrl
		case right != nil:
			return right
		case ctrl != nil:
			return ctrl
		}
		return w.deque.Pop()
	case kindControl:
		pl := f.pl
		if pl.parent != nil {
			if owner := scopeUnitDone(pl.parent); owner != nil {
				return owner
			}
			return w.deque.Pop()
		}
		w.eng.finishTopLevel(pl)
		return w.deque.Pop()
	}
	return w.deque.Pop()
}

// afterClosure retires a fork-join task.
func (w *worker) afterClosure(f *frame) *frame {
	sc := f.scope
	w.eng.releaseClosureFrame(f)
	if owner := scopeUnitDone(sc); owner != nil {
		return owner
	}
	return w.deque.Pop()
}

// stealFrom raids one victim: first the lazy-enabling check-right on the
// victim's assigned iteration (resuming implicitly enabled work "on the
// victim's deque"), then the deque proper, then the victim's injection
// ring so sharded roots are never stranded behind a busy shard owner.
func (w *worker) stealFrom(v *worker) *frame {
	if a := v.assigned.Load(); a != nil && a.kind == kindIter {
		if nxt := w.eng.tryWakeRight(a); nxt != nil {
			w.eng.stats.thiefEnables.Add(1)
			return nxt
		}
	}
	if f := v.deque.Steal(); f != nil {
		w.eng.stats.steals.Add(1)
		return f
	}
	if f := v.inbox.Poll(); f != nil {
		return f
	}
	return nil
}

// pollWork scans every work source once: the local deque, the worker's
// own injection ring, the overflow list, then a steal sweep visiting
// every victim exactly once from a random starting offset. Full coverage
// (rather than the classic random probing) is what lets parking be
// event-driven: the pre-park rescan in findWork must be deterministic,
// because no polling timer will paper over a missed victim.
func (w *worker) pollWork() *frame {
	e := w.eng
	if h := e.hooks; h != nil {
		if h.point != nil {
			h.point(hookPollWork)
		}
		if h.stealFirst != nil && h.stealFirst() {
			// Perturbation: raid the other shards before the local deque,
			// scrambling the LIFO owner order the scheduler prefers.
			if f := w.stealSweep(); f != nil {
				return f
			}
		}
	}
	if f := w.deque.Pop(); f != nil {
		return f
	}
	if f := w.inbox.Poll(); f != nil {
		return f
	}
	if f := e.popOverflow(); f != nil {
		return f
	}
	return w.stealSweep()
}

// stealSweep visits every victim exactly once from a random starting
// offset, returning the first frame raided.
func (w *worker) stealSweep() *frame {
	e := w.eng
	if n := len(e.workers); n > 1 {
		start := int(w.rng.Intn(n))
		for round := 0; round < n; round++ {
			v := e.workers[(start+round)%n]
			if v == w {
				continue
			}
			if f := w.stealFrom(v); f != nil {
				return f
			}
			e.stats.failedSteals.Add(1)
		}
	}
	return nil
}

// spinBeforeParkNs bounds the re-sweep a thief runs before it parks. At
// claim 1 a pipeline's control frame is off the deques only while the next
// iteration runs its stage 0 — a few microseconds — whereas a park costs a
// futex sleep, a ~50 µs wake, and on a virtualized host a stall of that
// order for the worker that issues the wake: a thief that swept inside the
// window would come back to find the owner has taken the continuation
// again. The bound stays at the steal and stage-0 time scale on purpose:
// spinning for a wake's length takes CPUs from whatever else the process
// runs (20 µs cost the serve-open benchmark a fifth of its throughput,
// 5 and 10 µs nothing; on dedup 10 µs leaves a quarter of the parks 5 µs
// does).
const spinBeforeParkNs = 10000

// findWork implements the thief loop: scan all work sources, re-sweep for
// spinBeforeParkNs while a pipeline is live and another worker could be
// about to release its continuation, then park until a signal delivers a
// wake token. Parking is precise — a worker registers in the idle set and
// re-scans before blocking, pairing with signal's publish-work-then-claim
// order, so no wakeup is lost and no polling timer is needed; the spin
// runs wholly before registration and changes none of that. A spinner is
// counted (spinners) so that the two readers of idleness, signal's
// scale-up and the adaptive throttle, see it as the waiting worker it is.
func (w *worker) findWork() *frame {
	e := w.eng
	for {
		if f := w.pollWork(); f != nil {
			return f
		}
		if e.liveN.Load() > 1 && e.pools.livePipeline.Load() > 0 {
			var f *frame
			e.spinners.Add(1)
			for end := nowNs() + spinBeforeParkNs; f == nil && !e.closed.Load() && nowNs() < end; {
				f = w.pollWork()
			}
			e.spinners.Add(-1)
			if f != nil {
				return f
			}
		}
		if e.closed.Load() {
			// Drain before exiting: a launch that won the submitMu race
			// against Close may have published work this iteration's scan
			// predated. This scan is ordered after the closed flag, and
			// the flag after every successful inject, so nothing queued
			// is ever stranded.
			if f := w.pollWork(); f != nil {
				return f
			}
			return nil
		}
		e.registerIdle(w)
		if f := w.pollWork(); f != nil {
			e.cancelIdle(w)
			return f
		}
		// Pair with Close's wake sweep: if registration raced past the
		// sweep, this load (ordered after registerIdle) sees the flag and
		// self-cancels; if it ran before the flag flipped, the sweep sees
		// the registration and delivers a wake token. Either way no
		// worker stays parked across Close.
		if e.closed.Load() {
			e.cancelIdle(w)
			continue // final drain scan at the loop top, then exit
		}
		e.stats.parks.Add(1)
		// A parked worker is always released by a wake token, from signal
		// or from Close's sweep.
		if !w.parkAwait() {
			return nil // retired: the worker role ends here
		}
	}
}

// parkAwait blocks the registered-idle worker until a wake token arrives.
// On an elastic engine a surplus worker instead gives up after the idle
// grace period and retires; parkAwait then reports false and the caller
// must exit the worker role (the slot stays allocated and can respawn).
// Fixed-P engines take the bare channel receive — no timer ever arms.
func (w *worker) parkAwait() bool {
	e := w.eng
	if !e.canGrow || int(e.liveN.Load()) <= e.opts.MinWorkers {
		<-w.parkCh
		return true
	}
	// Reuse one timer per worker across parks (surplus workers park often
	// under bursty load); go.mod requires 1.24, whose timer semantics make
	// Stop/Reset safe without draining the channel.
	if w.retireTimer == nil {
		w.retireTimer = time.NewTimer(e.opts.RetireAfter)
	} else {
		w.retireTimer.Reset(e.opts.RetireAfter)
	}
	select {
	case <-w.parkCh:
		w.retireTimer.Stop()
		return true
	case <-w.retireTimer.C:
	}
	// Idle grace expired. Leave the idle set first: if a waker (or Close's
	// sweep) already claimed this worker, cancelIdle absorbs the in-flight
	// token and the timeout counts as an ordinary wake — work (or the
	// closed flag) is waiting for us.
	if e.cancelIdle(w) {
		return true
	}
	// retire refuses when the pool is at MinWorkers or the engine is
	// closing; re-enter the scan loop as if woken (the loop re-registers,
	// or drains and exits on the closed path).
	return !e.retire(w)
}
