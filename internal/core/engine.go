package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"piper/internal/arena"
	"piper/internal/deque"
	"piper/internal/workload"
)

// Options configures an Engine. The ablation switches correspond to the
// runtime optimizations of Section 9 of the paper.
type Options struct {
	// Workers is the number of scheduling workers P, fixed for the
	// engine's lifetime. Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// MaxPending and Tenants configure admission control, which package
	// piper composes over Submit (see piper.MaxPending and piper.Tenants).
	// The engine itself never reads them.
	MaxPending int
	Tenants    []TenantClass
	// Throttle is the default throttling limit K for pipelines started on
	// this engine; 0 means 4·P, the paper's recommended setting.
	Throttle int
	// DependencyFolding enables the cached-stage-counter optimization
	// (on by default via DefaultOptions).
	DependencyFolding bool
	// EagerEnabling disables lazy enabling: every stage advance performs
	// a check-right immediately, not only while a worker is parked (see
	// frame.publishStage). For ablation only.
	EagerEnabling bool
	// TailSwap enables the tail-swap rule at iteration completion
	// (on by default via DefaultOptions).
	TailSwap bool
	// ArenaBuffers enables the engine's recycled payload-buffer arena
	// (on by default via DefaultOptions; see Engine.Arena and
	// internal/arena). Disable only for ablation: Engine.Arena then
	// returns a pass-through arena whose Get always allocates fresh
	// storage and whose Release hands it to the GC, with the full Ref
	// ownership API (and the LiveArenaBytes gauge) intact. It has no
	// public Option; internal/bench and the allocation-ceiling tests set it.
	ArenaBuffers bool

	// hooks is the test-only schedule-perturbation injection point (see
	// hooks.go). Always nil on production engines; settable only from
	// within this package, so the perturbation tests can widen the
	// interleaving space without exposing scheduling internals.
	hooks *schedHooks
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		Workers:           runtime.GOMAXPROCS(0),
		Throttle:          0,
		DependencyFolding: true,
		EagerEnabling:     false,
		TailSwap:          true,
		ArenaBuffers:      true,
	}
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Throttle <= 0 {
		o.Throttle = 4 * o.Workers // the paper's recommended setting
	}
}

// Engine is a PIPER work-stealing scheduler instance: P workers, each with
// a work-stealing deque, fed top-level pipelines through one root queue,
// executing pipeline programs submitted through PipeWhile.
//
// The pool is fixed: workers holds Options.Workers entries for the
// engine's lifetime, each running the scheduling loop, so thieves and
// producers sweep the array with no synchronization. An idle worker costs
// nothing after its pre-park spin: it parks on its channel until a signal
// hands it work (see worker.findWork).
type Engine struct {
	opts    Options
	workers []*worker
	stats   statCounters
	pools   framePools

	// arena is the engine's payload-buffer arena (see Engine.Arena):
	// recycled, cache-aligned, ref-counted regions the data-plane
	// workloads flow through pipeline stages. Immutable after NewEngine.
	arena *arena.Arena

	// Hot cross-worker words, padded apart from each other and from the
	// mutex-guarded cold state around them: idle is loaded by every
	// pushWork (via signal) and by every pre-park spin decision and written
	// on park/unpark, and rootN is polled by every work scan. Sharing a line
	// between them — or with rootMu or idleMu, whose lock words churn on
	// every inject and park — would make each writer invalidate every
	// reader.
	_     cacheLinePad
	idle  atomic.Int64
	_     cacheLinePad
	rootN atomic.Int32
	_     cacheLinePad

	// roots is the root queue: a FIFO of injected top-level control
	// frames, live from rootHead on, that any worker pops after its own
	// deque comes up empty, so pipelines start in arrival order. rootN
	// mirrors its length so that a scan finding it empty takes no lock.
	// The backing array is reused: rootHead returns to 0 whenever the
	// queue drains.
	rootMu   sync.Mutex
	roots    []*frame
	rootHead int

	// Parking is event-driven: a worker that finds no work registers in
	// the idle set and blocks on its private park channel; every signal
	// claims exactly one idle worker and hands it a wake token, so a burst
	// of N injections wakes min(N, idle) distinct workers and no wakeup is
	// ever lost (the old single-slot wake channel could drop them, only
	// bounding the damage by polling).
	idleMu      sync.Mutex
	idleWorkers []*worker

	// spareRunners is the engine's stack of idle runners beyond the one
	// each worker keeps (see runner). runnersCreated counts every runner
	// ever made, for the pool-bound test.
	runnerMu       sync.Mutex
	spareRunners   []*runner
	runnersCreated atomic.Int64

	// submitMu orders root-frame injection against Close: injectors hold
	// the read side across the closed check and the inject, Close takes
	// the write side to flip closed, so every frame published to the root
	// queue happens-before the closed flag — the final drain scan in
	// findWork is ordered after that flag and therefore misses nothing.
	// Without this, a Submit racing Close could strand a queued pipeline
	// and its Handle.Wait would hang forever.
	submitMu sync.RWMutex
	closed   atomic.Bool
	wg       sync.WaitGroup

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
		opts:  opts,
		hooks: opts.hooks,
		arena: arena.New(opts.ArenaBuffers),
	}
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			eng:    e,
			id:     i,
			deque:  deque.New[frame](64),
			parkCh: make(chan struct{}, 1),
			rng:    workload.NewRNG(uint64(i)*0x9e3779b9 + 1),
		}
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		//piper:allow-go accounted: the wg.Add above pairs with loop's deferred wg.Done, drained by Close
		go w.loop()
	}
	return e
}

// Options reports the engine's (normalized) configuration.
func (e *Engine) Options() Options { return e.opts }

// Workers reports the worker count P.
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
// The gauges — Live*Frames and the arena fields — describe a single
// instant only when that instant is stable:
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
	// TestCloseUnderChurn exercises both races.
	for {
		w := e.claimIdle()
		if w == nil {
			break
		}
		w.parkCh <- struct{}{}
	}
	e.wg.Wait()
	// Every pipeline has completed, so no parked frame holds a runner:
	// each one is a worker's or on the spare stack, idle at its loop's
	// yield, and stop ends it there.
	for _, w := range e.workers {
		if w.r != nil {
			w.r.stop()
		}
	}
	for _, r := range e.spareRunners {
		r.stop()
	}
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
	// FinalGrain is the batched-execution run length G at completion: the
	// cost-bounded policy's last claim (see pipeline.openBatch). 1 for
	// serial runs.
	FinalGrain int64
	// WorkNs and SpanNs are the work T1 and the unthrottled span T∞ of
	// the pipeline dag in nanoseconds, measured from the serial elision
	// and populated only by ProfilePipeline (the Cilkview analogue; see
	// profile). Neither includes scheduling or interference cost.
	WorkNs, SpanNs int64
}

// Parallelism returns the profiled T1/T∞, or 0 for a run that was not
// profiled.
func (r PipelineReport) Parallelism() float64 {
	if r.SpanNs <= 0 {
		return 0
	}
	return float64(r.WorkNs) / float64(r.SpanNs)
}

// RunPipeline is PipeWhileThrottled returning a space/shape report. It
// waits on a Handle that finishTopLevel completes, as for a Submit, and
// re-panics with the original value if the pipeline panicked. It cannot
// be canceled and is not a Stats.Submits.
func (e *Engine) RunPipeline(k int, cond func() bool, body func(*Iter)) PipelineReport {
	h := &Handle{eng: e, done: make(chan struct{})}
	e.submitMu.RLock()
	if e.closed.Load() {
		e.submitMu.RUnlock()
		panic(fmt.Errorf("%w: PipeWhile not started", ErrEngineClosed))
	}
	pl := e.newPipeline(k, cond, body)
	pl.sub = h
	e.inject(pl.control)
	e.submitMu.RUnlock()
	if err := h.Wait(); err != nil {
		panic(err.(*PanicError).Value)
	}
	return h.rep
}

// ProfilePipeline measures the work T1 and span T∞ of the pipeline's dag
// like the modified Cilkview of Section 10: it runs the serial elision on
// the calling goroutine, as RunSerial does, recording each node on the
// clock openBatch reads (see profile). k does not enter the profile:
// SpanNs is the unthrottled T∞. A panic in cond or body propagates.
func (e *Engine) ProfilePipeline(k int, cond func() bool, body func(*Iter)) PipelineReport {
	return runSerial(e.profileFrame(), cond, body)
}

// PipeWhile starts a pipeline nested inside the current iteration; the
// iteration suspends until the nested pipeline completes. Nested pipelines
// may not be started from stage 0 (the serial prologue).
func (it *Iter) PipeWhile(cond func() bool, body func(*Iter)) {
	it.PipeWhileThrottled(0, cond, body)
}

// PipeWhileThrottled is the nested PipeWhile with an explicit throttle
// (0 means the engine default).
func (it *Iter) PipeWhileThrottled(k int, cond func() bool, body func(*Iter)) {
	f := it.f
	if f.serial {
		// Serial elision applies recursively (see profile.nested).
		if p := f.prof; p != nil {
			p.nested(cond, body)
		} else {
			RunSerial(cond, body)
		}
		return
	}
	if f.inStage0 {
		panic("piper: nested pipelines may not be started from stage 0")
	}
	pl := f.eng.newPipeline(k, cond, body)
	// A nested pipeline inherits the root submission's cancellation word,
	// so canceling a Submit tears down the whole pipeline tree.
	pl.abort = f.pl.abort
	sc := newScope(f)
	sc.n.Store(1)
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

func (e *Engine) newPipeline(k int, cond func() bool, body func(*Iter)) *pipeline {
	if k <= 0 {
		k = e.opts.Throttle
	}
	// The control frame is a plain state-machine frame: whichever worker
	// holds it runs pl.step on that worker's runner; no runner belongs to
	// it. It recycles together with its pipeline (see pool.go).
	pl := e.acquirePipeline()
	pl.cond, pl.body = cond, body
	pl.K = int64(k)
	e.stats.pipelines.Add(1)
	return pl
}

// inject queues a root frame at the tail of the root queue and wakes a
// worker for it. An append that would grow an array whose first half is
// already spent compacts it instead, so a queue that never quite drains
// does not grow with the number of injects.
func (e *Engine) inject(f *frame) {
	e.rootMu.Lock()
	if h := e.rootHead; h > 0 && len(e.roots) == cap(e.roots) && 2*h >= len(e.roots) {
		n := copy(e.roots, e.roots[h:])
		clear(e.roots[n:])
		e.roots, e.rootHead = e.roots[:n], 0
	}
	e.roots = append(e.roots, f)
	e.rootN.Add(1)
	e.rootMu.Unlock()
	e.signal()
}

// popRoot takes the oldest frame from the root queue, or nil if it is
// empty. The atomic length keeps the mutex off empty scans.
func (e *Engine) popRoot() *frame {
	if e.rootN.Load() == 0 {
		return nil
	}
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	if e.rootHead == len(e.roots) {
		return nil
	}
	f := e.roots[e.rootHead]
	e.roots[e.rootHead] = nil
	e.rootHead++
	if e.rootHead == len(e.roots) {
		e.roots, e.rootHead = e.roots[:0], 0
	}
	e.rootN.Add(-1)
	return f
}

// signal wakes exactly one parked worker, if any. Pairs with the
// register-then-rescan protocol in findWork: the caller has already made
// its work visible (deque or root-queue publication happens-before the
// idle load), so either this load observes the parked worker, or the
// worker's rescan observes the work. A batched control-frame release
// publishes without a signal; its releaser takes it back (releaseControl).
func (e *Engine) signal() {
	if e.idle.Load() == 0 {
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

// cancelIdle withdraws w after its pre-park rescan found work or it saw
// the engine closing. If a waker already claimed w, its wake token is in
// flight; absorb it so the next park does not wake spuriously.
func (e *Engine) cancelIdle(w *worker) {
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
	}
}

// tryWakeRight performs PIPER's check-right on behalf of iteration f: if
// iteration f.index+1 is parked on a cross edge that f's progress has
// satisfied, claim it. The caller must deliver the returned frame. Run at
// segment boundaries, by thieves (stealFrom), and by frame.publishStage.
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
