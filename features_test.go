package piper_test

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"piper"
	"piper/internal/workload"
)

func TestPublicRunSerialMatchesEngine(t *testing.T) {
	build := func(run func(cond func() bool, body func(*piper.Iter))) []int64 {
		var out []int64
		i := 0
		run(func() bool { return i < 120 }, func(it *piper.Iter) {
			i++
			it.Continue(1)
			v := it.Index() * it.Index()
			it.Wait(2)
			out = append(out, v)
		})
		return out
	}
	serial := build(func(c func() bool, b func(*piper.Iter)) { piper.RunSerial(c, b) })
	eng := piper.NewEngine(piper.Workers(4))
	defer eng.Close()
	parallel := build(eng.PipeWhile)
	for k := range serial {
		if serial[k] != parallel[k] {
			t.Fatalf("output %d differs", k)
		}
	}
}

func TestSerialPipeGeneric(t *testing.T) {
	in := []int{5, 6, 7}
	i := 0
	var got []int
	rep := piper.SerialPipe(func() (int, bool) {
		if i >= len(in) {
			return 0, false
		}
		v := in[i]
		i++
		return v, true
	}, func(it *piper.Iter, v int) {
		it.Continue(1)
		got = append(got, v*10)
	})
	if rep.Iterations != 3 {
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	for k, v := range got {
		if v != (in[k])*10 {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestPublicProfile(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	i := 0
	rep := piper.Profile(eng, 8, func() bool { return i < 30 }, func(it *piper.Iter) {
		i++
		workload.SpinMicros(20)
		it.Continue(1)
		workload.SpinMicros(200)
		it.Wait(2)
		workload.SpinMicros(20)
	})
	if rep.WorkNs <= 0 || rep.SpanNs <= 0 {
		t.Fatalf("no instrumentation data: %+v", rep)
	}
	if p := rep.Parallelism(); p < 1 {
		t.Fatalf("parallelism = %v", p)
	}
}

func TestPublicTraceExport(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	eng.StartTrace()
	i := 0
	eng.PipeWhile(func() bool { return i < 10 }, func(it *piper.Iter) {
		i++
		it.Continue(1)
	})
	var buf bytes.Buffer
	if err := eng.StopTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
}

func TestEachEmpty(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	ran := false
	piper.Each(eng, []int(nil), func(it *piper.Iter, v int) { ran = true })
	if ran {
		t.Fatal("body ran for empty slice")
	}
}

func TestProfilePipeGeneric(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(1))
	defer eng.Close()
	i := 0
	var sum atomic.Int64
	rep := piper.ProfilePipe(eng, 4, func() (int, bool) {
		if i >= 20 {
			return 0, false
		}
		i++
		return i, true
	}, func(it *piper.Iter, v int) {
		it.Continue(1)
		workload.SpinMicros(50)
		sum.Add(int64(v))
	})
	if sum.Load() != 20*21/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if rep.WorkNs <= 0 {
		t.Fatal("no work measured")
	}
}

// TestStatsSnapshotFields sanity-checks new counters exist and stay
// coherent.
func TestStatsSnapshotFields(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	i := 0
	eng.PipeWhile(func() bool { return i < 64 }, func(it *piper.Iter) {
		i++
		it.Continue(1)
		it.Wait(2)
	})
	s := eng.Stats()
	if s.ThrottleParks < 0 || s.BatchedIterations < 0 || s.BatchSplits < 0 {
		t.Fatal("negative counters")
	}
	if s.Iterations != 64 {
		t.Fatalf("iterations = %d", s.Iterations)
	}
}
