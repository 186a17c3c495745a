package core

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
	// hookParkPublish fires inside the cross-edge parking protocol between
	// publishing the waiting state and re-checking the edge — the window
	// every waker races against.
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
	// forceOverflow makes Engine.inject spill straight to the overflow
	// list, as if every live injection ring were full.
	forceOverflow func() bool
	// stealFirst makes a worker's scan raid the other shards before its
	// own deque, scrambling the preferred LIFO order.
	stealFirst func() bool
	// clock replaces the clock openBatch derives per-iteration cost from,
	// so a test can make the claim sequence a function of declared cost
	// (or of a seed) instead of the host's speed.
	clock func() int64
}

// hookAt runs the point hook if one is installed. Kept out-of-line so the
// nil fast path inlines to a load and a branch at every call site.
func (e *Engine) hookAt(p hookPoint) {
	if h := e.hooks; h != nil && h.point != nil {
		h.point(p)
	}
}

// batchClock is openBatch's clock read: the clock hook if one is installed.
func (e *Engine) batchClock() int64 {
	if h := e.hooks; h != nil && h.clock != nil {
		return h.clock()
	}
	return nowNs()
}
