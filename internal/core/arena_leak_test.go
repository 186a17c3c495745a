package core

import (
	"context"
	"sync"
	"testing"

	"piper/internal/arena"
)

// Arena leak checks: the data-plane analogue of the frame-gauge drain
// tests. Pipeline bodies check regions out of the engine's arena, hand
// them across stages and fork-join tasks by retain/release, and every
// path out of a body — normal completion, cancellation at a stage
// boundary, panic unwinding — must leave LiveArenaBytes at zero
// (checkEngineDrained asserts it alongside the frame gauges).

// TestArenaDrainsAfterCompletion runs the canonical ownership hand-off —
// a producer/consumer chain through serial stage 0, exactly the vidsim
// reference-frame pattern — to completion on enabled and disabled
// arenas, and requires balanced counters and a drained engine.
func TestArenaDrainsAfterCompletion(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		name := "enabled"
		if !enabled {
			name = "disabled"
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.ArenaBuffers = enabled
			e := NewEngine(opts)
			defer e.Close()
			a := e.Arena()

			var prev *arena.Ref
			i := 0
			e.PipeWhile(func() bool { i++; return i <= 200 }, func(it *Iter) {
				// Stage 0 (serial): take out this iteration's region plus a
				// chain reference for the successor; adopt the predecessor's
				// chain reference.
				mine := a.Get(1024)
				mine.Retain() // the chain slot's reference
				from := prev
				prev = mine
				defer mine.Release()
				defer func() {
					if from != nil {
						from.Release()
					}
				}()
				mine.B = append(mine.B, byte(i))

				it.Wait(1)
				if from != nil && len(from.B) == 0 {
					t.Error("predecessor region lost its payload")
				}

				it.Continue(2)
				// Hand one reference to each fork-join task.
				mine.Retain()
				mine.Retain()
				it.For(2, 1, func(int) {
					_ = mine.Bytes()
					mine.Release()
				})

				it.Wait(3)
			})
			if prev != nil {
				prev.Release() // the last iteration's chain reference
			}
			checkEngineDrained(t, e)

			s := e.Stats()
			if s.ArenaGets != 200 {
				t.Errorf("ArenaGets = %d, want 200", s.ArenaGets)
			}
			if enabled {
				if s.ArenaPuts != s.ArenaGets {
					t.Errorf("ArenaPuts = %d, want %d (every final release must recycle)", s.ArenaPuts, s.ArenaGets)
				}
				if s.ArenaBytesRecycled == 0 {
					t.Error("ArenaBytesRecycled = 0 on an enabled arena")
				}
			} else {
				if s.ArenaPuts != 0 || s.ArenaBytesRecycled != 0 {
					t.Errorf("disabled arena recycled: puts %d, bytes %d", s.ArenaPuts, s.ArenaBytesRecycled)
				}
			}
		})
	}
}

// TestArenaDrainsUnderCancelStorm is the seeded, schedule-perturbed
// cancellation storm over arena-carrying pipelines: submissions are
// canceled at random points (half immediately, mid-claim), the
// perturbation hooks widen the interleavings, and LiveArenaBytes must
// still drain to zero under every grain tier and seed.
func TestArenaDrainsUnderCancelStorm(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		grain int
	}{{"grain1", 1}, {"adaptive", 0}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := DefaultOptions()
				opts.Workers = 2
				opts.Grain = cfg.grain
				opts.hooks = newPerturber(seed * 0x9e3779b9)
				e := NewEngine(opts)
				a := e.Arena()
				var wg sync.WaitGroup
				for q := 0; q < 40; q++ {
					ctx, cancel := context.WithCancel(context.Background())
					i := 0
					sz := 256 << (q % 4)
					h := e.Submit(ctx, func() bool { i++; return i <= 48 }, func(it *Iter) {
						r := a.Get(sz)
						defer r.Release()
						r.B = append(r.B, byte(i))
						it.Wait(1)
						it.Continue(2)
						r.Retain()
						func() {
							defer r.Release()
							_ = r.Bytes()
						}()
						it.Wait(3)
					})
					wg.Add(1)
					go func(q int) {
						defer wg.Done()
						defer cancel()
						if q%2 == 0 {
							cancel() // half the storm aborts mid-flight
						}
						_ = h.Wait()
					}(q)
				}
				wg.Wait()
				checkEngineDrained(t, e)
				e.Close()
			}
		})
	}
}

// TestArenaDrainsAfterBodyPanic panics out of a body holding a live
// region: unwinding must run the deferred release, the panic must surface
// as a *PanicError on the handle, and the arena must drain.
func TestArenaDrainsAfterBodyPanic(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	e := NewEngine(opts)
	defer e.Close()
	a := e.Arena()

	i := 0
	h := e.Submit(nil, func() bool { i++; return i <= 64 }, func(it *Iter) {
		r := a.Get(4096)
		defer r.Release()
		it.Continue(1)
		if it.Index() == 4 { // not i: past stage 0 the next iteration's cond writes it
			panic("mid-pipeline failure with a live region")
		}
		it.Wait(2)
	})
	err := h.Wait()
	if err == nil {
		t.Fatal("panicking pipeline reported success")
	}
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("Wait returned %T (%v), want *PanicError", err, err)
	}
	checkEngineDrained(t, e)
}
