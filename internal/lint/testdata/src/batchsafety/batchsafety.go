// Package batchsafety is the batchsafety analyzer fixture: pipeline
// bodies that block through raw synchronization, plus clean counterparts.
package batchsafety

import (
	"context"
	"sync"
	"time"

	"piper"
)

func flagged(eng *piper.Engine, ch chan int, mu *sync.Mutex, wg *sync.WaitGroup) {
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 10 }, func(it *piper.Iter, v int) {
		ch <- v  // want "raw channel send in pipeline body"
		<-ch     // want "raw channel receive in pipeline body"
		select { // want "select in pipeline body"
		case <-ch: // want "raw channel receive in pipeline body"
		default:
		}
		for range ch { // want "range over channel in pipeline body"
		}
		mu.Lock()                    // want "sync.Mutex.Lock in pipeline body"
		wg.Wait()                    // want "sync.WaitGroup.Wait in pipeline body"
		time.Sleep(time.Millisecond) // want "time.Sleep in pipeline body"
	})
}

// The serving-driver idiom: the body reaches the entry point through a
// local variable, not an inline literal.
func flaggedNamed(eng *piper.Engine, ch chan int) {
	body := func(it *piper.Iter, v int) {
		ch <- v // want "raw channel send in pipeline body"
	}
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 3 }, body)
}

// The cond/next closure runs as the serial stage-0 prefix of each
// iteration, so it is bound by the contract too.
func flaggedCond(eng *piper.Engine, ch chan int) {
	piper.Pipe(eng, func() (int, bool) {
		v, ok := <-ch // want "raw channel receive in pipeline body"
		return v, ok
	}, func(it *piper.Iter, v int) { _ = v })
}

// Tenant submissions are found by the body's type like every other entry
// point, inline or through a local variable.
func flaggedTenant(ctx context.Context, eng *piper.Engine, ch chan int) {
	i := 0
	eng.SubmitTenant(ctx, "batch", func() bool { i++; return i < 3 }, func(it *piper.Iter) {
		time.Sleep(time.Millisecond) // want "time.Sleep in pipeline body"
	})
	body := func(it *piper.Iter) {
		ch <- 1 // want "raw channel send in pipeline body"
	}
	eng.SubmitWaitTenant(ctx, "quiet", func() bool { return false }, body)
}

func clean(eng *piper.Engine, ch chan int, mu *sync.Mutex, sink []int) {
	// Outside pipeline bodies, raw blocking is ordinary Go.
	ch <- 1
	mu.Lock()
	defer mu.Unlock()
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 10 }, func(it *piper.Iter, v int) {
		it.Wait(1)
		sink[v] = v
		//piper:allow-block the metrics channel is buffered and drained faster than produced
		ch <- v
	})
}
