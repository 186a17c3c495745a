package piper

import "context"

// SubmitPipe is Pipe started asynchronously: the pipeline runs in the
// background, canceled at stage boundaries if ctx is canceled, and the
// returned Handle reports completion, the context error, or a captured
// panic. See Engine.Submit for the cancellation semantics.
//
// ErrSaturated contract: on an engine with a MaxPending budget, SubmitPipe
// follows Submit's reject admission policy — when the budget is exhausted
// the Handle completes immediately with ErrSaturated, next is never
// called, and no pipeline state is allocated. Callers that prefer to queue
// under backpressure use SubmitPipeWait (or Engine.SubmitWait), which
// never reports ErrSaturated: it blocks for a slot and fails only with the
// context's error or ErrEngineClosed.
func SubmitPipe[T any](ctx context.Context, eng *Engine, next func() (T, bool), body func(it *Iter, v T)) *Handle {
	var (
		cur T
		ok  bool
	)
	cond := func() bool {
		cur, ok = next()
		return ok
	}
	return eng.Submit(ctx, cond, func(it *Iter) {
		v := cur // stage 0: capture before the next iteration's cond runs
		body(it, v)
	})
}

// SubmitPipeWait is SubmitPipe under the blocking admission policy: a
// saturated engine makes the call block until a pending-pipeline slot
// frees (or ctx is done, or the engine closes) instead of failing the
// Handle with ErrSaturated. See Engine.SubmitWait.
func SubmitPipeWait[T any](ctx context.Context, eng *Engine, next func() (T, bool), body func(it *Iter, v T)) *Handle {
	var (
		cur T
		ok  bool
	)
	cond := func() bool {
		cur, ok = next()
		return ok
	}
	return eng.SubmitWait(ctx, cond, func(it *Iter) {
		v := cur // stage 0: capture before the next iteration's cond runs
		body(it, v)
	})
}

// Pipe runs a pipeline over the elements produced by next. next executes
// serially, in order, as part of each iteration's stage 0 and returns the
// element for the iteration plus an ok flag; the pipeline ends when ok is
// false. body receives the iteration handle and the element, already
// copied into iteration-local state, which avoids the shared-variable
// pitfall of hand-written pipe_while conditions.
//
// Grain contract: while its iterations are measured cheap, the scheduler
// claims runs of consecutive iterations and executes them back-to-back on
// one worker — next is then called between the iterations of a run,
// still serially and exactly once per iteration, and all pipe_while
// semantics (serial stage-0 order, cross edges, cancellation) are
// preserved. The one visible constraint: a body may block through piper
// primitives (Wait, Sync, nested pipelines — the batch detects these and
// splits), but blocking on external synchronization that a later
// iteration of the same pipeline would satisfy can deadlock, just as the
// paper requires inter-iteration dependencies to be expressed via
// pipe_wait. The batchsafety
// analyzer (internal/lint, `go run ./cmd/piperlint`) enforces this
// contract statically: raw channel operations, select, mutex/WaitGroup
// waits, and time.Sleep inside a body are flagged unless annotated
// //piper:allow-block with a reason.
func Pipe[T any](eng *Engine, next func() (T, bool), body func(it *Iter, v T)) {
	PipeThrottled(eng, 0, next, body)
}

// PipeThrottled is Pipe with an explicit per-pipeline throttling limit K
// (0 means the engine default).
func PipeThrottled[T any](eng *Engine, k int, next func() (T, bool), body func(it *Iter, v T)) {
	var (
		cur T
		ok  bool
	)
	cond := func() bool {
		cur, ok = next()
		return ok
	}
	eng.RunPipeline(k, cond, func(it *Iter) {
		v := cur // stage 0: capture before the next iteration's cond runs
		body(it, v)
	})
}

// Profile runs one pipeline with work/span instrumentation and returns
// the measured T1, T∞ and their ratio — the scalability-analyzer
// ("Cilkview") measurement the paper uses to explain dedup's limited
// parallelism. k is the throttling limit (0 for the engine default).
func Profile(eng *Engine, k int, cond func() bool, body func(*Iter)) PipelineReport {
	return eng.ProfilePipeline(k, cond, body)
}

// ProfilePipe is Profile over a generic element source, like Pipe.
func ProfilePipe[T any](eng *Engine, k int, next func() (T, bool), body func(it *Iter, v T)) PipelineReport {
	var (
		cur T
		ok  bool
	)
	cond := func() bool {
		cur, ok = next()
		return ok
	}
	return eng.ProfilePipeline(k, cond, func(it *Iter) {
		v := cur
		body(it, v)
	})
}

// Each applies body to every element of items as pipeline iterations.
// Stage 0 is just the index bump, so bodies that immediately Continue(1)
// behave like an ordered parallel-for with streaming (serial) tail stages
// available via Wait.
func Each[T any](eng *Engine, items []T, body func(it *Iter, v T)) {
	i := 0
	next := func() (T, bool) {
		if i >= len(items) {
			var zero T
			return zero, false
		}
		v := items[i]
		i++
		return v, true
	}
	Pipe(eng, next, body)
}
