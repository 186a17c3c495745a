package core

import "time"

// Schedule-perturbation hooks: a test-only injection point that widens the
// interleaving space the differential fuzzer and the race detector can
// explore. Batching, promotion, and the parking protocols are all
// publish-then-recheck machines whose rare interleavings depend on timing
// the scheduler normally never produces; the hooks let a test inject
// seeded delays and forced decisions at the named points below without
// exposing any scheduling internals.
//
// Production engines always run with a nil hook set — Options.hooks is
// unexported, so only tests inside this package can install one — and the
// hot paths pay a single predictable nil-check branch.

// hookPoint names a scheduler decision point at which a perturbation hook
// may run.
type hookPoint uint8

const (
	// hookIteration fires in the control-frame step before an iteration is
	// launched (once per batch on the inline path).
	hookIteration hookPoint = iota
	// hookBatchSlot fires between the claimed slots of an inline batch,
	// after one iteration body completes and before the next begins.
	hookBatchSlot
	// hookReleaseControl fires right after the control frame is pushed to
	// the deque at an iteration's stage-0 exit, while the releasing
	// iteration's body is still running.
	hookReleaseControl
	// hookParkPublish fires inside both parking protocols, the cross
	// edge's and the join's, between publishing the waiting state and
	// re-checking the condition — the window every waker races against.
	hookParkPublish
	// hookPollWork fires at the top of a worker's work scan.
	hookPollWork
)

// schedHooks is the perturbation hook set. Any field may be nil; non-nil
// fields must be safe for concurrent use from every worker goroutine.
type schedHooks struct {
	// point is invoked at the named decision points; it may sleep, spin,
	// or Gosched to stretch a race window.
	point func(hookPoint)
	// stealFirst makes a worker's scan raid the other workers' deques
	// before its own, scrambling the preferred LIFO order.
	stealFirst func() bool
	// clock replaces the clock openBatch derives per-iteration cost from
	// and ProfilePipeline stamps its nodes with, so a test can make the
	// claim sequence and the measured work and span a function of
	// declared cost (or of a seed) instead of the host's speed.
	clock func() int64
	// claim receives every claim the policy decides in openBatch, under
	// control-frame ownership, and returns the claim the batch runs, which
	// is also the state the next open doubles from: an observer returns its
	// argument, a test that pins the run length returns a constant.
	claim func(int64) int64
}

// hookAt runs the point hook if one is installed. Kept out-of-line so the
// nil fast path inlines to a load and a branch at every call site.
func (e *Engine) hookAt(p hookPoint) {
	if h := e.hooks; h != nil && h.point != nil {
		h.point(p)
	}
}

// nowNs is the engine's monotonic clock: trace stamps, the pre-park spin,
// and batchClock without a hook.
func nowNs() int64 { return int64(time.Since(clockEpoch)) }

var clockEpoch = time.Now()

// batchClock is the clock openBatch and ProfilePipeline read: the clock
// hook if one is installed.
func (e *Engine) batchClock() int64 {
	if h := e.hooks; h != nil && h.clock != nil {
		return h.clock()
	}
	return nowNs()
}
