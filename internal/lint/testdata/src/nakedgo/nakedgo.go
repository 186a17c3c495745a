// Package nakedgo is the nakedgo analyzer fixture (user-code half): raw
// goroutines inside pipeline bodies versus Iter.Go.
package nakedgo

import (
	"context"

	"piper"
)

func flagged(eng *piper.Engine, results []int) {
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 8 }, func(it *piper.Iter, v int) {
		go func() { results[v] = v * v }() // want "raw go statement in pipeline body"
	})
}

func flaggedTenant(ctx context.Context, eng *piper.Engine, results []int) {
	i := 0
	eng.SubmitTenant(ctx, "batch", func() bool { i++; return i < 3 }, func(it *piper.Iter) {
		go func() { results[i] = i }() // want "raw go statement in pipeline body"
	})
	body := func(it *piper.Iter) {
		go func() { results[0] = 0 }() // want "raw go statement in pipeline body"
	}
	eng.SubmitWaitTenant(ctx, "quiet", func() bool { return false }, body)
}

func clean(eng *piper.Engine, results []int) {
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 8 }, func(it *piper.Iter, v int) {
		it.Go(func() { results[v] = v * v })
		it.Sync()
	})
	go func() { results[0] = 0 }() // outside a body: ordinary Go
}

func annotated(eng *piper.Engine, done chan struct{}) {
	i := 0
	piper.Pipe(eng, func() (int, bool) { i++; return i, i < 8 }, func(it *piper.Iter, v int) {
		//piper:allow-go the caller joins on done before the pipeline returns
		go func() { done <- struct{}{} }()
	})
}
