// Package atomicalign is the atomicalign analyzer fixture: raw 64-bit
// atomics, aligned or not, and undersized cache-line pads, plus clean
// uses.
package atomicalign

import "sync/atomic"

type misaligned struct {
	flag bool
	n    int64 // offset 4 under GOARCH=386 layout
}

func bump(m *misaligned) {
	atomic.AddInt64(&m.n, 1) // want "raw 64-bit atomic atomic.AddInt64"
}

// A raw 64-bit atomic is banned even where the layout happens to align it.
type aligned struct {
	n    int64
	flag bool
}

func bumpAligned(a *aligned) {
	atomic.AddInt64(&a.n, 1) // want "raw 64-bit atomic atomic.AddInt64"
}

func loadLocal() uint64 {
	var n uint64
	return atomic.LoadUint64(&n) // want "raw 64-bit atomic atomic.LoadUint64"
}

func bumpAccepted(a *aligned) {
	//piper:allow-align the fixture's documented exemption
	atomic.AddInt64(&a.n, 1)
}

// The typed wrappers are always aligned, and 32-bit raw atomics need no
// 8-byte alignment.
type typed struct {
	flag bool
	n    atomic.Int64
	m    int32
}

func bumpTyped(t *typed) {
	t.n.Add(1)
	atomic.AddInt32(&t.m, 1)
}

type badPad struct { // want "pad field badPad._pad is too small"
	hot  atomic.Int64
	_pad [8]byte
	cold atomic.Int64
}

type goodPad struct {
	hot  atomic.Int64
	_pad [56]byte
	cold atomic.Int64
}

//piper:allow-align both words are written by the same goroutine; the pad only splits reader traffic
type acceptedPad struct {
	hot  atomic.Int64
	_pad [8]byte
	cold atomic.Int64
}

var (
	_ = badPad{}
	_ = goodPad{}
	_ = acceptedPad{}
)
