package piper

import "piper/internal/core"

// RunSerial executes a pipeline body with full pipe_while semantics on
// the calling goroutine, with no scheduler: the TS baseline of the
// paper's speedup tables, and a debugging mode (stage-discipline
// violations panic exactly as in parallel runs). Fork-join constructs and
// nested pipelines inside the body are serially elided.
func RunSerial(cond func() bool, body func(*Iter)) PipelineReport {
	return core.RunSerial(cond, body)
}

// SerialPipe is RunSerial over a generic element source, like Pipe.
func SerialPipe[T any](next func() (T, bool), body func(it *Iter, v T)) PipelineReport {
	var (
		cur T
		ok  bool
	)
	cond := func() bool {
		cur, ok = next()
		return ok
	}
	return core.RunSerial(cond, func(it *Iter) {
		v := cur
		body(it, v)
	})
}
