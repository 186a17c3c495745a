package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestInjectFIFO(t *testing.T) {
	q := NewInject[int](8)
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	// Fill to capacity, drain, refill: exercises lap arithmetic.
	for lap := 0; lap < 3; lap++ {
		base := lap * 8
		for i := 0; i < 8; i++ {
			if !q.Offer(&vals[(base+i)%20]) {
				t.Fatalf("lap %d: Offer %d failed below capacity", lap, i)
			}
		}
		if q.Offer(&vals[0]) {
			t.Fatalf("lap %d: Offer succeeded on a full ring", lap)
		}
		for i := 0; i < 8; i++ {
			x := q.Poll()
			if x == nil || *x != vals[(base+i)%20] {
				t.Fatalf("lap %d: Poll %d = %v, want %d", lap, i, x, vals[(base+i)%20])
			}
		}
		if q.Poll() != nil {
			t.Fatalf("lap %d: Poll returned element from empty ring", lap)
		}
	}
}

func TestInjectCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 8}, {3, 8}, {8, 8}, {9, 16}, {100, 128}} {
		if got := NewInject[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("NewInject(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestInjectConcurrent hammers the ring from many producers and consumers
// and checks that every element is delivered exactly once.
func TestInjectConcurrent(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 4000
	)
	q := NewInject[int64](64)
	total := producers * perProd
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = int64(i)
	}
	var seen = make([]atomic.Int32, total)
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				x := &vals[p*perProd+i]
				for !q.Offer(x) {
					runtime.Gosched() // full: wait for a consumer to drain
				}
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for delivered.Load() < int64(total) {
				if x := q.Poll(); x != nil {
					if seen[*x].Add(1) != 1 {
						t.Errorf("element %d delivered twice", *x)
					}
					delivered.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if got := delivered.Load(); got != int64(total) {
		t.Fatalf("delivered %d of %d elements", got, total)
	}
	if q.Len() != 0 {
		t.Fatalf("ring not empty after drain: Len=%d", q.Len())
	}
}
