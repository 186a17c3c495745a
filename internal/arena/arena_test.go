package arena

import (
	"sync"
	"testing"
	"unsafe"

	"piper/internal/workload"
)

func base(b []byte) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b[:1])))
}

func TestGetAlignmentAndCapacity(t *testing.T) {
	a := New(true)
	for _, n := range []int{1, 255, 256, 257, 4096, 16<<10 + 1, 1 << 20} {
		r := a.Get(n)
		if len(r.B) != 0 {
			t.Errorf("Get(%d): len %d, want 0", n, len(r.B))
		}
		if cap(r.B) < n {
			t.Errorf("Get(%d): cap %d < request", n, cap(r.B))
		}
		if base(r.B)%CacheLine != 0 {
			t.Errorf("Get(%d): base %#x not %d-aligned", n, base(r.B), CacheLine)
		}
		r.Release()
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Errorf("LiveBytes %d after releasing everything, want 0", live)
	}
}

func TestRecycleSameStorage(t *testing.T) {
	a := New(true)
	r := a.Get(4096)
	p := base(r.B)
	r.Release()
	r2 := a.Get(4096)
	s := a.Stats()
	// The race detector's sync.Pool drops Puts at random, so under -race the
	// second Get may miss and allocate; only the release accounting holds.
	if !workload.RaceEnabled {
		if base(r2.B) != p {
			t.Errorf("recycled Get returned different storage: %#x vs %#x", base(r2.B), p)
		}
		if s.Misses != 1 {
			t.Errorf("Misses = %d, want 1 (second Get must hit the pool)", s.Misses)
		}
	}
	if s.RecycledBytes == 0 {
		t.Error("RecycledBytes = 0 after a pooled release")
	}
	r2.Release()
}

func TestDisabledArenaNeverRecycles(t *testing.T) {
	a := New(false)
	r := a.Get(4096)
	p := base(r.B)
	r.Release()
	r2 := a.Get(4096)
	defer r2.Release()
	if base(r2.B) == p {
		t.Error("disabled arena recycled storage")
	}
	s := a.Stats()
	if s.RecycledBytes != 0 {
		t.Errorf("disabled arena RecycledBytes = %d, want 0", s.RecycledBytes)
	}
	if s.Misses != 2 {
		t.Errorf("disabled arena Misses = %d, want 2", s.Misses)
	}
}

func TestLiveBytesGauge(t *testing.T) {
	a := New(true)
	r1 := a.Get(1000) // class 1024
	r2 := a.Get(5000) // class 8192
	if live := a.Stats().LiveBytes; live != 1024+8192 {
		t.Errorf("LiveBytes = %d, want %d", live, 1024+8192)
	}
	r1.Retain()
	r1.Release()
	if live := a.Stats().LiveBytes; live != 1024+8192 {
		t.Errorf("LiveBytes = %d after retain+release, want unchanged %d", live, 1024+8192)
	}
	r1.Release()
	r2.Release()
	if live := a.Stats().LiveBytes; live != 0 {
		t.Errorf("LiveBytes = %d after final releases, want 0", live)
	}
}

func TestGrownRegionRebuckets(t *testing.T) {
	a := New(true)
	r := a.Get(256)
	// Outgrow the class: append past capacity so the runtime reallocates.
	r.B = append(r.B[:0], make([]byte, 10000)...)
	grown := cap(r.B)
	wasAligned := base(r.B)%CacheLine == 0
	r.Release()
	s := a.Stats()
	if wasAligned {
		if s.RecycledBytes != int64(grown) {
			t.Errorf("RecycledBytes = %d, want grown capacity %d", s.RecycledBytes, grown)
		}
	} else if s.RecycledBytes != 0 {
		t.Errorf("misaligned grown storage must be dropped, but RecycledBytes = %d", s.RecycledBytes)
	}
	if s.LiveBytes != 0 {
		t.Errorf("LiveBytes = %d, want 0", s.LiveBytes)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	a := New(true)
	r := a.Get(64)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	r.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	a := New(true)
	r := a.Get(64)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain after Release did not panic")
		}
	}()
	r.Retain()
}

func TestDebugUseAfterRelease(t *testing.T) {
	prev := SetDebug(true)
	defer SetDebug(prev)
	a := New(true)
	r := a.Get(64)
	copy(r.B[:8], "payload!")
	r.Release()
	defer func() {
		if recover() == nil {
			t.Error("Bytes on a released region did not panic under debug")
		}
	}()
	_ = r.Bytes()
}

func TestDebugPoisonOnRelease(t *testing.T) {
	prev := SetDebug(true)
	defer SetDebug(prev)
	a := New(true)
	r := a.Get(64)
	r.B = r.B[:64]
	for i := range r.B {
		r.B[i] = 0x42
	}
	keep := r.B // deliberate misuse: alias kept past the release
	r.Release()
	for i, v := range keep[:64] {
		if v != 0xDB {
			t.Fatalf("byte %d = %#x after release, want poison 0xDB", i, v)
		}
	}
}

func TestViewInt32RoundTrip(t *testing.T) {
	a := New(true)
	r := a.Get(1024)
	defer r.Release()
	xs := View[int32](r, 256)
	if len(xs) != 256 {
		t.Fatalf("len = %d, want 256", len(xs))
	}
	for i := range xs {
		xs[i] = int32(i * 3)
	}
	ys := View[int32](r, 256)
	for i := range ys {
		if ys[i] != int32(i*3) {
			t.Fatalf("view not aliased: ys[%d] = %d", i, ys[i])
		}
	}
}

func TestViewOverflowPanics(t *testing.T) {
	a := New(true)
	r := a.Get(64)
	defer r.Release()
	defer func() {
		if recover() == nil {
			t.Error("oversized View did not panic")
		}
	}()
	_ = View[int64](r, 1<<20)
}

// TestConcurrentRetainRelease hammers one region's refcount from many
// goroutines under the race detector: every retain pairs with a release,
// the holder's own reference goes last, and the storage must recycle
// exactly once with the gauge back at zero.
func TestConcurrentRetainRelease(t *testing.T) {
	a := New(true)
	const goroutines, rounds = 8, 2000
	r := a.Get(4096)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		r.Retain() // hand one reference to each goroutine
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Retain()
				_ = r.Bytes()
				r.Release()
			}
			r.Release() // drop the handed reference
		}()
	}
	wg.Wait()
	r.Release()
	if live := a.Stats().LiveBytes; live != 0 {
		t.Errorf("LiveBytes = %d after concurrent churn, want 0", live)
	}
	if puts := a.Stats().Puts; puts != 1 {
		t.Errorf("Puts = %d, want exactly 1 (single region)", puts)
	}
}

// TestConcurrentGetRelease churns checkouts across classes from many
// goroutines; the gauges must balance when everyone is done.
func TestConcurrentGetRelease(t *testing.T) {
	a := New(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes := []int{300, 4096, 100, 16 << 10}
			for i := 0; i < 3000; i++ {
				r := a.Get(sizes[(g+i)%len(sizes)])
				r.B = append(r.B, byte(i))
				r.Release()
			}
		}()
	}
	wg.Wait()
	s := a.Stats()
	if s.LiveBytes != 0 {
		t.Errorf("LiveBytes = %d, want 0", s.LiveBytes)
	}
	if s.Gets != s.Puts {
		t.Errorf("Gets %d != Puts %d after balanced churn", s.Gets, s.Puts)
	}
}
