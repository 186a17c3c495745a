package main

import (
	"bytes"
	"reflect"
	"testing"

	"piper"
	"piper/internal/dedup"
	"piper/internal/workload"
)

// Equal seeds give equal inputs and schedules; different seeds differ.
func TestInputsFollowTheSeed(t *testing.T) {
	if !bytes.Equal(dedupInput(7, 64<<10), dedupInput(7, 64<<10)) {
		t.Error("dedupInput differs for equal seeds")
	}
	if bytes.Equal(dedupInput(7, 64<<10), dedupInput(8, 64<<10)) {
		t.Error("dedupInput equal for different seeds")
	}
	a, b, c := sampleInputs(7, true), sampleInputs(7, true), sampleInputs(8, true)
	if !reflect.DeepEqual(a.video.Frames, b.video.Frames) {
		t.Error("sample video differs for equal seeds")
	}
	if reflect.DeepEqual(a.video.Frames, c.video.Frames) {
		t.Error("sample video equal for different seeds")
	}
}

func TestArrivalScheduleFollowsTheSeed(t *testing.T) {
	due := func(seed uint64) ([]int64, []uint16) {
		w := &serveOpen{seed: seed}
		reqs := w.schedule(workload.NewRNG(seed), 5000, 0.2, true)
		ds, shapes := make([]int64, len(reqs)), make([]uint16, len(reqs))
		for i, r := range reqs {
			ds[i], shapes[i] = r.due, r.shape
		}
		return ds, shapes
	}
	d1, s1 := due(3)
	d2, s2 := due(3)
	d3, _ := due(4)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(s1, s2) {
		t.Error("schedule differs for equal seeds")
	}
	if reflect.DeepEqual(d1, d3) {
		t.Error("schedule equal for different seeds")
	}
	if n := len(d1); n < 800 || n > 1200 {
		t.Errorf("%d arrivals in 0.2 s at 5000/s", n)
	}
	for i := 1; i < len(d1); i++ {
		if d1[i] < d1[i-1] {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
	}
}

// The traced pass of dedup-batch runs a twin of the library's pipeline;
// it must write the very same archive, stamped or not.
func TestDedupTwinMatchesLibrary(t *testing.T) {
	data := dedupInput(11, 512<<10)
	eng := piper.NewEngine(piper.Workers(nproc()))
	defer eng.Close()
	var lib, twin, traced bytes.Buffer
	if err := dedup.CompressPiper(eng, 0, data, &lib); err != nil {
		t.Fatal(err)
	}
	if _, err := dedupTwin(eng, false, data, &twin, nil); err != nil {
		t.Fatal(err)
	}
	st := newStageTrace(len(dedup.ChunkAll(data)), dedupStages, dedupSerial)
	if _, err := dedupTwin(eng, false, data, &traced, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twin.Bytes(), lib.Bytes()) || !bytes.Equal(traced.Bytes(), lib.Bytes()) {
		t.Errorf("twin archive differs from CompressPiper's: %d / %d vs %d bytes", twin.Len(), traced.Len(), lib.Len())
	}
	for i := 0; i < st.iters(); i++ {
		for j, x := range st.row(i) {
			if x.end < x.start || x.end == 0 {
				t.Fatalf("iteration %d stage %d not stamped: %+v", i, j, x)
			}
		}
	}
	if s := eng.Stats(); s.LiveArenaBytes != 0 {
		t.Errorf("twin leaked %d arena bytes", s.LiveArenaBytes)
	}
}
