package deque

import "sync/atomic"

// Inject is a bounded multi-producer multi-consumer FIFO ring (Vyukov's
// bounded MPMC queue): producers enqueue with one CAS on the tail, and
// consumers dequeue with one CAS on the head. The engine no longer uses
// it — top-level pipelines reach the workers through one mutex-guarded
// root queue — and it is kept for the benchmark's deque.inject_* probes.
//
// Each cell carries a sequence number that encodes its state relative to
// the ring lap: seq == pos means "free for the producer at pos", seq ==
// pos+1 means "filled, free for the consumer at pos". The sequence store
// that publishes a cell is the release edge pairing with the consumer's
// acquire load, so the value field itself needs no atomics.
type Inject[T any] struct {
	enq   atomic.Uint64
	_pad0 [56]byte // keep producers and consumers off one cache line
	deq   atomic.Uint64
	_pad1 [56]byte
	mask  uint64
	cells []injectCell[T]
}

type injectCell[T any] struct {
	seq atomic.Uint64
	val *T
}

// NewInject returns an empty ring with capacity rounded up to a power of
// two (minimum 8).
func NewInject[T any](capacity int) *Inject[T] {
	c := uint64(8)
	for c < uint64(capacity) {
		c <<= 1
	}
	q := &Inject[T]{mask: c - 1, cells: make([]injectCell[T], c)}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// Offer enqueues x, reporting false if the ring is full. Safe for any
// number of concurrent producers.
func (q *Inject[T]) Offer(x *T) bool {
	for {
		pos := q.enq.Load()
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				c.val = x
				c.seq.Store(pos + 1)
				return true
			}
		case d < 0:
			return false // a full lap behind: ring is full
		default:
			// Lost a race with another producer; reload.
		}
	}
}

// Poll dequeues the oldest element, or nil if the ring is empty (or every
// filled cell is still being published). Safe for any number of
// concurrent consumers.
func (q *Inject[T]) Poll() *T {
	for {
		pos := q.deq.Load()
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos+1); {
		case d == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				x := c.val
				c.val = nil
				// Free the cell for the producer one lap ahead.
				c.seq.Store(pos + q.mask + 1)
				return x
			}
		case d < 0:
			return nil // not yet filled: empty
		default:
			// Lost a race with another consumer; reload.
		}
	}
}

// Len reports the approximate number of queued elements; exact only when
// no concurrent operations are in flight.
func (q *Inject[T]) Len() int {
	n := int64(q.enq.Load()) - int64(q.deq.Load())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Cap reports the ring's fixed capacity.
func (q *Inject[T]) Cap() int { return int(q.mask + 1) }
