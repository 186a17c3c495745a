// Package core is the nakedgo analyzer fixture (engine-internal half):
// the harness loads it under the import path piper/internal/core, where
// every goroutine must be accounted to the Close-time WaitGroup.
package core

import "iter"

func spawnLoop(loops []func()) {
	for _, l := range loops {
		go l() // want "raw go statement in engine-internal code"
	}
}

func accountedSpawn(wg interface{ Add(int) }, l func()) {
	wg.Add(1)
	//piper:allow-go accounted: Close drains the worker WaitGroup this Add charged
	go l()
}

func unstoppedCoroutine(seq iter.Seq[int]) func() (int, bool) {
	next, _ := iter.Pull(seq) // want "coroutine spawn \\(iter.Pull\\) in engine-internal code"
	return next
}

func unstoppedCoroutine2(seq iter.Seq2[int, int]) func() (int, int, bool) {
	next, _ := iter.Pull2(seq) // want "coroutine spawn \\(iter.Pull2\\)"
	return next
}

func pooledCoroutine(seq iter.Seq[int], pool *[]func()) func() (int, bool) {
	//piper:allow-go stopped at Close: stop is kept in the pool Close drains
	next, stop := iter.Pull(seq)
	*pool = append(*pool, stop)
	return next
}
