package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"piper"
	"piper/internal/arena"
	"piper/internal/deque"
	"piper/internal/workload"
)

// Layer probes: each times one layer in isolation through its exported
// functions, the same way in every traced run whatever the workload. A
// probe repeats its measurement probeReps times and reports the median.
const probeReps = 5

// probeScale shrinks the probes' operation counts for the smoke test.
type probeScale int

func (s probeScale) n(full int) int { return max(full/max(int(s), 1), 8) }

// perOp times f, which performs n operations, and returns ns per
// operation, median of probeReps.
func perOp(n int, f func()) float64 {
	return medianOf(probeReps, func() float64 { return float64(timed(f)) / float64(n) })
}

func dequeProbes(m metrics, s probeScale) {
	n := s.n(1 << 20)
	items := make([]int, 64)

	d := deque.New[int](1024)
	m.set("deque.push_pop_ns", perOp(n, func() {
		for i := 0; i < n; i++ {
			d.Push(&items[i&63])
			d.Pop()
		}
	}), probeReps)

	// A thief against a pushing owner: the owner keeps the deque
	// stocked, the thief's time per successful steal is what counts.
	steals := s.n(1 << 18)
	m.set("deque.steal_ns", medianOf(probeReps, func() float64 {
		d := deque.New[int](1024)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if d.Len() < 512 {
					d.Push(&items[0])
				}
			}
		}()
		t0 := time.Now()
		for got := 0; got < steals; {
			if d.Steal() != nil {
				got++
			}
		}
		el := time.Since(t0)
		stop.Store(true)
		wg.Wait()
		return float64(el) / float64(steals)
	}), probeReps)

	q := deque.NewInject[int](1024)
	m.set("deque.inject_offer_poll_ns", perOp(n, func() {
		for i := 0; i < n; i++ {
			q.Offer(&items[i&63])
			q.Poll()
		}
	}), probeReps)

	// nproc producers against one consumer, per item moved.
	moved := s.n(1 << 18)
	m.set("deque.inject_mpmc_ns", medianOf(probeReps, func() float64 {
		q := deque.NewInject[int](1024)
		var wg sync.WaitGroup
		var left atomic.Int64
		left.Store(int64(moved))
		for p := 0; p < nproc(); p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for left.Add(-1) >= 0 {
					for !q.Offer(&items[0]) {
						runtime.Gosched()
					}
				}
			}()
		}
		t0 := time.Now()
		for got := 0; got < moved; {
			if q.Poll() != nil {
				got++
			}
		}
		el := time.Since(t0)
		wg.Wait()
		return float64(el) / float64(moved)
	}), probeReps)
}

func arenaProbes(m metrics, s probeScale) {
	n := s.n(1 << 17)
	for _, c := range []struct {
		size      int
		one, many string
	}{
		{64 << 10, "arena.get_release_64k_ns", "arena.get_release_par_64k_ns"},
		{2 << 20, "arena.get_release_2m_ns", "arena.get_release_par_2m_ns"},
	} {
		a := arena.New(true)
		loop := func() {
			for i := 0; i < n; i++ {
				r := a.Get(c.size)
				r.Release() //piper:allow-ref the probe times the Get/Release pair itself; nothing can unwind between them
			}
		}
		loop() // fill the size class
		m.set(c.one, perOp(n, loop), probeReps)
		m.set(c.many, perOp(n, func() {
			var wg sync.WaitGroup
			for p := 0; p < nproc(); p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					loop()
				}()
			}
			wg.Wait()
		}), probeReps)
	}
}

// iterCost times a pipeline of n iterations of body on eng and returns ns
// per iteration.
func iterCost(eng *piper.Engine, n int, body func(*piper.Iter)) float64 {
	return perOp(n, func() {
		i := 0
		eng.PipeWhile(func() bool { i++; return i <= n }, body)
	})
}

func coreProbes(m metrics, s probeScale) {
	var sink atomic.Uint64
	spsBody := func(it *piper.Iter) { sink.Add(spsStages(it)) }
	emptyBody := func(it *piper.Iter) {}

	// Per-iteration floors on one worker: no stealing, no parking, only
	// the cost of driving an iteration through its stages.
	one := piper.NewEngine(piper.Workers(1))
	n := s.n(400_000)
	m.set("core.empty_iter_ns", iterCost(one, n, emptyBody), probeReps)
	sps := iterCost(one, n/4, spsBody)
	m.set("core.sps_iter_ns", sps, probeReps)
	m.set("core.chain_iter_ns", iterCost(one, n/2, func(it *piper.Iter) {
		it.Wait(1)
		it.Wait(2)
		it.Wait(3)
		it.Wait(4)
	}), probeReps)
	serial := perOp(n/4, func() {
		i := 0
		piper.RunSerial(func() bool { i++; return i <= n/4 }, spsBody)
	})
	m.set("core.t1_over_ts", sps/serial, probeReps)
	one.Close()

	eng := piper.NewEngine(piper.Workers(nproc()))
	defer eng.Close()
	never := func() bool { return false }
	launches := s.n(20_000)
	m.set("core.launch_us", perOp(launches, func() {
		for i := 0; i < launches; i++ {
			eng.PipeWhile(never, emptyBody)
		}
	})/1e3, probeReps)

	// Submit→Wait round trip of a one-iteration pipeline: back to back
	// (workers still awake), and after 1 ms of idleness (workers parked).
	ctx := context.Background()
	roundTrip := func() time.Duration {
		i := 0
		t0 := time.Now()
		_ = eng.Submit(ctx, func() bool { i++; return i <= 1 }, emptyBody).Wait() // an empty body cannot fail
		return time.Since(t0)
	}
	trips := s.n(20_000)
	hot := perOp(trips, func() {
		for i := 0; i < trips; i++ {
			roundTrip()
		}
	}) / 1e3
	var colds durations
	for i := 0; i < s.n(300); i++ {
		time.Sleep(time.Millisecond)
		colds = append(colds, roundTrip())
	}
	cold := colds.medianMs() * 1e3
	m.set("core.submit_wait_hot_us", hot, probeReps)
	m.set("core.submit_wait_cold_us", cold, len(colds))
	m.set("core.park_wake_us", cold-hot, len(colds))

	// A one-iteration nested pipeline inside a body: promotion plus
	// launch, as the cost over the same outer pipeline without it.
	outer := s.n(20_000)
	plain := iterCost(eng, outer, func(it *piper.Iter) { it.Continue(1) })
	nested := iterCost(eng, outer, func(it *piper.Iter) {
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { j++; return j <= 1 }, emptyBody)
	})
	m.set("core.nested_launch_us", (nested-plain)/1e3, probeReps)

	const tasks = 64
	forked := iterCost(eng, outer/4, func(it *piper.Iter) {
		it.Continue(1)
		it.For(tasks, 1, func(int) {})
	})
	m.set("core.for_task_ns", (forked-plain)/tasks, probeReps)

	// Admission: Submit with a free budget against Submit with no budget
	// configured, then the hand-off of the single slot of a budget of 1.
	budget := piper.NewEngine(piper.Workers(nproc()), piper.MaxPending(1<<20))
	admitted := perOp(trips, func() {
		for i := 0; i < trips; i++ {
			j := 0
			_ = budget.Submit(ctx, func() bool { j++; return j <= 1 }, emptyBody).Wait() // as above
		}
	})
	budget.Close()
	m.set("core.admission_fast_ns", admitted-hot*1e3, probeReps)

	single := piper.NewEngine(piper.Workers(nproc()), piper.MaxPending(1))
	defer single.Close()
	var handoffs []float64
	base := time.Now()
	for i := 0; i < s.n(400); i++ {
		var lastStage, firstStage int64
		a, b := 0, 0
		// The predecessor holds the slot for about 50 µs; the waiter queues
		// behind it and stamps its stage 0 when it finally runs.
		h1 := single.SubmitWait(ctx, func() bool { a++; return a <= 1 }, func(it *piper.Iter) {
			it.Wait(1)
			sink.Add(workload.Spin(50 * floorSpinUnits))
			lastStage = int64(time.Since(base))
		})
		h2 := single.SubmitWait(ctx, func() bool { b++; return b <= 1 }, func(it *piper.Iter) {
			firstStage = int64(time.Since(base))
		})
		if h1.Wait() == nil && h2.Wait() == nil {
			handoffs = append(handoffs, float64(firstStage-lastStage)/1e3)
		}
	}
	m.set("core.admission_handoff_us", median(handoffs), len(handoffs))
}
