package core

import "testing"

func TestRunSerialMatchesParallel(t *testing.T) {
	runPipe := func(exec func(cond func() bool, body func(*Iter))) []int64 {
		var out []int64
		i := 0
		exec(func() bool { return i < 200 }, func(it *Iter) {
			i++
			it.Continue(1)
			v := it.Index() * 3
			it.Wait(2)
			out = append(out, v)
		})
		return out
	}
	serial := runPipe(func(c func() bool, b func(*Iter)) { RunSerial(c, b) })
	e := newTestEngine(t, 4)
	parallel := runPipe(func(c func() bool, b func(*Iter)) { e.PipeWhile(c, b) })
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for k := range serial {
		if serial[k] != parallel[k] {
			t.Fatalf("output %d differs: %d vs %d", k, serial[k], parallel[k])
		}
	}
}

func TestRunSerialStageDiscipline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunSerial must enforce strictly increasing stages")
		}
	}()
	i := 0
	RunSerial(func() bool { return i < 1 }, func(it *Iter) {
		i++
		it.Continue(5)
		it.Wait(2)
	})
}

func TestRunSerialForkJoinElision(t *testing.T) {
	var sum int
	i := 0
	RunSerial(func() bool { return i < 3 }, func(it *Iter) {
		i++
		it.Continue(1)
		it.Go(func() { sum++ })
		it.Sync()
		it.For(10, 3, func(k int) { sum += k })
	})
	if sum != 3*(1+45) {
		t.Fatalf("sum = %d, want %d", sum, 3*46)
	}
}

func TestRunSerialNestedPipeline(t *testing.T) {
	e := newTestEngine(t, 2)
	_ = e
	var count int
	i := 0
	RunSerial(func() bool { return i < 4 }, func(it *Iter) {
		i++
		it.Continue(1)
		j := 0
		it.PipeWhile(func() bool { return j < 5 }, func(in *Iter) {
			j++
			in.Continue(1)
			count++
		})
	})
	if count != 20 {
		t.Fatalf("count = %d", count)
	}
}

func TestRunSerialReport(t *testing.T) {
	i := 0
	rep := RunSerial(func() bool { return i < 7 }, func(it *Iter) { i++ })
	if rep.Iterations != 7 || rep.MaxLiveIterations != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunSerialIndexAndStage(t *testing.T) {
	i := 0
	RunSerial(func() bool { return i < 3 }, func(it *Iter) {
		if it.Index() != int64(i) {
			t.Errorf("index = %d, want %d", it.Index(), i)
		}
		i++
		it.Wait(4)
		if it.Stage() != 4 {
			t.Errorf("stage = %d, want 4", it.Stage())
		}
	})
}
