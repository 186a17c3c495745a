package lz

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"piper"
	"piper/internal/workload"
)

// TestFactorizeMatchesNaive: the suffix-array factorizer must produce the
// same greedy phrase boundaries (position, length) as the quadratic
// reference. Distances may differ when several previous occurrences tie
// on length, so the comparison is on boundaries plus a round-trip check.
func TestFactorizeMatchesNaive(t *testing.T) {
	rng := workload.NewRNG(42)
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("aaaaaaa"),
		[]byte("abababab"),
		[]byte("abracadabra"),
		[]byte("mississippi"),
		bytes.Repeat([]byte("abc"), 40),
	}
	for c := 0; c < 30; c++ {
		n := 1 + rng.Intn(200)
		alpha := 1 + rng.Intn(4)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(alpha))
		}
		cases = append(cases, b)
	}
	for ci, data := range cases {
		got := Factorize(data)
		want := naiveFactorize(data)
		if len(got) != len(want) {
			t.Fatalf("case %d (%q): %d factors, naive %d", ci, truncate(data), len(got), len(want))
		}
		for k := range got {
			if got[k].Len != want[k].Len || (got[k].Len == 0 && got[k].Lit != want[k].Lit) {
				t.Fatalf("case %d (%q) factor %d: got %+v, naive %+v", ci, truncate(data), k, got[k], want[k])
			}
		}
		if rec := Reconstruct(nil, got); !bytes.Equal(rec, data) {
			t.Fatalf("case %d: reconstruction mismatch", ci)
		}
	}
}

// TestFactorDistancesValid: every copy factor must point inside the
// already-produced prefix.
func TestFactorDistancesValid(t *testing.T) {
	data := workload.TextStream(7, 1<<15, 1024, 0.4)
	pos := int32(0)
	for _, f := range Factorize(data) {
		if f.Len == 0 {
			pos++
			continue
		}
		if f.Dist < 1 || f.Dist > pos {
			t.Fatalf("factor at %d has invalid distance %d", pos, f.Dist)
		}
		pos += f.Len
	}
	if int(pos) != len(data) {
		t.Fatalf("factors cover %d bytes, want %d", pos, len(data))
	}
}

// TestRoundTripSerial: encode/decode round trip through the serial
// compressor across block sizes and data shapes.
func TestRoundTripSerial(t *testing.T) {
	inputs := map[string][]byte{
		"empty":      nil,
		"tiny":       []byte("x"),
		"runs":       bytes.Repeat([]byte{0xaa}, 100_000),
		"text":       workload.TextStream(3, 1<<18, 4096, 0.35),
		"entropic":   randomBytes(11, 1<<16),
		"odd-sizing": workload.TextStream(9, (1<<16)+12345, 512, 0.5),
	}
	for name, data := range inputs {
		for _, bs := range []int{0, 1 << 10, 64 << 10} {
			enc := CompressSerial(data, bs)
			dec, err := Decompress(enc)
			if err != nil {
				t.Fatalf("%s/bs=%d: decompress: %v", name, bs, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s/bs=%d: round trip mismatch (%d vs %d bytes)", name, bs, len(dec), len(data))
			}
		}
	}
}

// TestPipelineMatchesSerial: the piper pipeline must produce the serial
// encoder's stream bit for bit — stage 2's pipe_wait makes the emission
// order serial — across engine configurations including the batching
// extremes.
func TestPipelineMatchesSerial(t *testing.T) {
	data := workload.TextStream(1234, 1<<19, 4096, 0.35)
	want := CompressSerial(data, 8<<10)
	cfgs := []struct {
		name string
		opts []piper.Option
	}{
		{"P1-adaptive", []piper.Option{piper.Workers(1)}},
		{"P4-adaptive", []piper.Option{piper.Workers(4)}},
		{"P4-grain1", []piper.Option{piper.Workers(4), piper.Grain(1)}},
		{"P4-grain4", []piper.Option{piper.Workers(4), piper.Grain(4)}},
	}
	for _, cfg := range cfgs {
		eng := piper.NewEngine(cfg.opts...)
		got := Compress(eng, 0, data, 8<<10)
		eng.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pipeline stream differs from serial encoder", cfg.name)
		}
	}
	dec, err := Decompress(want)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip: err=%v equal=%v", err, bytes.Equal(dec, data))
	}
	if r := Ratio(data, want); r >= 1.0 {
		t.Logf("note: ratio %.3f >= 1 on this input", r)
	}
}

// TestDecompressRejectsCorrupt: truncations and bit flips must error, not
// panic or hang.
func TestDecompressRejectsCorrupt(t *testing.T) {
	data := workload.TextStream(5, 1<<14, 1024, 0.3)
	enc := CompressSerial(data, 4<<10)
	for cut := 0; cut < len(enc); cut += 97 {
		if _, err := Decompress(enc[:cut]); err == nil && cut < len(enc) {
			// A clean prefix may decode only if it happens to be a full
			// stream; with a fixed total length it cannot.
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	flip := append([]byte(nil), enc...)
	flip[len(flip)/3] ^= 0x40
	if dec, err := Decompress(flip); err == nil && bytes.Equal(dec, data) {
		t.Fatal("bit flip produced an identical decode")
	}

	// Crafted adversarial streams: every field is attacker-controlled and
	// must produce errors, not panics or runaway allocations.
	crafted := map[string][]byte{
		"dist-zero":      {4, 16, 1, 2, 0},                                                              // copy factor with Dist=0
		"dist-huge":      {4, 16, 1, 2, 255, 255, 3},                                                    // Dist far beyond produced output
		"len-huge":       {4, 16, 1, 255, 255, 3, 1},                                                    // Len beyond the block bound
		"zero-factors":   {4, 16, 0},                                                                    // empty block can't make progress
		"huge-total":     append([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}, 16, 1, 0, 'x'), // total=2^63+
		"huge-blocksize": {4, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1},
	}
	for name, s := range crafted {
		if _, err := Decompress(s); err == nil {
			t.Errorf("crafted stream %q decoded without error", name)
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

func randomBytes(seed uint64, n int) []byte {
	b := make([]byte, n)
	workload.NewRNG(seed).Bytes(b)
	return b
}

func BenchmarkFactorize64K(b *testing.B) {
	data := workload.TextStream(77, 64<<10, 4096, 0.35)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Factorize(data)
	}
}

// steadyStateAllocs reports what one run allocates once pools, arena and
// workers are warm: the allocation count from testing.AllocsPerRun, and the
// bytes from the runtime's cumulative counter as the least of three rounds
// of as many runs (a sync.Pool refill lands in one round in a few; a
// per-block allocation shows in every round).
func steadyStateAllocs(run func()) (allocs, bytes float64) {
	const runs = 5
	run()
	allocs = testing.AllocsPerRun(runs, run)
	bytes = math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestCompressSteadyStateAllocs keeps block factorization in recycled
// arena regions: 1 MiB in 16 KiB blocks at P=2 read 14 allocations and
// 1.12 MB a run (the returned stream and its growth) when the ceilings were
// set, and they allow that reading +25 % plus 32 allocations and 256 KiB.
// The same input without arena recycling (400 allocations, 52 MB) must
// break both, which is what shows the ceilings bind.
func TestCompressSteadyStateAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const (
		maxAllocs = 14*1.25 + 32
		maxBytes  = 1123741*1.25 + 256<<10
	)
	data := workload.TextStream(1234, 1<<20, 4096, 0.35)
	measure := func(arena bool) (float64, float64) {
		eng := piper.NewEngine(piper.Workers(2), piper.ArenaBuffers(arena))
		defer eng.Close()
		return steadyStateAllocs(func() { _ = Compress(eng, 0, data, 16<<10) })
	}
	allocs, bytes := measure(true)
	t.Logf("arena on: %.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("steady state allocates %.0f allocs / %.0f bytes per run, want <= %.0f / %.0f", allocs, bytes, float64(maxAllocs), float64(maxBytes))
	}
	allocs, bytes = measure(false)
	t.Logf("arena off: %.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs <= maxAllocs || bytes <= maxBytes {
		t.Errorf("ArenaBuffers(false) stays under a ceiling (%.0f allocs / %.0f bytes per run against %.0f / %.0f): the ceilings do not bind", allocs, bytes, float64(maxAllocs), float64(maxBytes))
	}
}
