package dedup

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"piper"
	"piper/internal/core"
	"piper/internal/workload"
)

func testData(seed uint64, size int, dupRatio float64) []byte {
	return workload.TextStream(seed, size, 4096, dupRatio)
}

func TestChunkerCoversStream(t *testing.T) {
	data := testData(1, 256<<10, 0.3)
	chunks := ChunkAll(data)
	var total int
	for _, c := range chunks {
		total += len(c)
		if len(c) == 0 {
			t.Fatal("empty chunk")
		}
		if len(c) > maxChunk {
			t.Fatalf("chunk of %d exceeds max %d", len(c), maxChunk)
		}
	}
	if total != len(data) {
		t.Fatalf("chunks cover %d bytes of %d", total, len(data))
	}
	var rejoined []byte
	for _, c := range chunks {
		rejoined = append(rejoined, c...)
	}
	if !bytes.Equal(rejoined, data) {
		t.Fatal("chunk concatenation differs from input")
	}
}

// TestChunkerContentDefined: inserting a prefix shifts chunk boundaries
// only locally; most chunk content reappears identically.
func TestChunkerContentDefined(t *testing.T) {
	base := testData(2, 128<<10, 0)
	shifted := append(append([]byte{}, testData(3, 3000, 0)...), base...)
	sums := func(chunks [][]byte) map[string]bool {
		m := make(map[string]bool)
		for _, c := range chunks {
			m[string(c)] = true
		}
		return m
	}
	a := sums(ChunkAll(base))
	b := sums(ChunkAll(shifted))
	common := 0
	for k := range a {
		if b[k] {
			common++
		}
	}
	if frac := float64(common) / float64(len(a)); frac < 0.5 {
		t.Fatalf("only %.0f%% of chunks survived a prefix shift; boundaries are not content-defined", frac*100)
	}
}

func TestChunkerExpectedSize(t *testing.T) {
	data := testData(4, 1<<20, 0)
	chunks := ChunkAll(data)
	mean := len(data) / len(chunks)
	if mean < 1024 || mean > 16384 {
		t.Fatalf("mean chunk size %d outside sane range", mean)
	}
}

func TestSerialRoundTrip(t *testing.T) {
	data := testData(5, 512<<10, 0.4)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("round trip mismatch")
	}
	if arch.Len() >= len(data) {
		t.Fatalf("no compression: archive %d >= input %d", arch.Len(), len(data))
	}
}

func TestDuplicatesDetected(t *testing.T) {
	// A stream that repeats one block many times must dedup well.
	block := testData(6, 64<<10, 0)
	data := bytes.Repeat(block, 8)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	// With 8x duplication the archive should be far below 1/4 the input.
	if arch.Len() > len(data)/4 {
		t.Fatalf("duplicate elimination ineffective: %d of %d", arch.Len(), len(data))
	}
	restored, err := Restore(arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestAllExecutorsProduceIdenticalArchives is the cross-executor oracle:
// piper, bind-to-stage, TBB and the profiled piper pipeline must emit
// byte-identical archives to the serial implementation.
func TestAllExecutorsProduceIdenticalArchives(t *testing.T) {
	data := testData(7, 768<<10, 0.35)
	var want bytes.Buffer
	if err := CompressSerial(data, &want); err != nil {
		t.Fatal(err)
	}

	eng := piper.NewEngine(piper.Workers(4))
	defer eng.Close()
	var gotPiper bytes.Buffer
	if err := CompressPiper(eng, 16, data, &gotPiper); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPiper.Bytes(), want.Bytes()) {
		t.Error("piper archive differs from serial")
	}

	var gotBind bytes.Buffer
	if err := CompressBindStage(data, 4, 16, &gotBind); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBind.Bytes(), want.Bytes()) {
		t.Error("bind-to-stage archive differs from serial")
	}

	var gotTBB bytes.Buffer
	if err := CompressTBB(data, 4, 16, &gotTBB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTBB.Bytes(), want.Bytes()) {
		t.Error("TBB archive differs from serial")
	}

	// The profile behind Figure 7's parallelism note runs CompressPiper's
	// own pipeline, so it writes the same archive.
	var gotProfile bytes.Buffer
	rep, err := ProfilePiper(eng, data, &gotProfile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotProfile.Bytes(), want.Bytes()) {
		t.Error("profiled archive differs from serial")
	}
	if n := int64(len(ChunkAll(data))); rep.Iterations != n || rep.Parallelism() <= 1 {
		t.Errorf("profile: %d iterations, parallelism %.2f; want %d and above 1", rep.Iterations, rep.Parallelism(), n)
	}
}

func TestPiperRoundTripWorkerSweep(t *testing.T) {
	data := testData(8, 256<<10, 0.5)
	for _, p := range []int{1, 2, 8} {
		eng := piper.NewEngine(piper.Workers(p))
		var arch bytes.Buffer
		if err := CompressPiper(eng, 4*p, data, &arch); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		restored, err := Restore(arch.Bytes())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !bytes.Equal(restored, data) {
			t.Fatalf("P=%d: round trip mismatch", p)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint16, dupRaw uint8) bool {
		size := int(sizeRaw)%(128<<10) + 1024
		dup := float64(dupRaw%80) / 100
		data := testData(seed, size, dup)
		var arch bytes.Buffer
		if err := CompressSerial(data, &arch); err != nil {
			return false
		}
		restored, err := Restore(arch.Bytes())
		if err != nil {
			return false
		}
		return bytes.Equal(restored, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	data := testData(9, 64<<10, 0.2)
	var arch bytes.Buffer
	if err := CompressSerial(data, &arch); err != nil {
		t.Fatal(err)
	}
	b := arch.Bytes()
	if _, err := Restore(b[:10]); err == nil {
		t.Error("truncated archive restored without error")
	}
	if _, err := Restore([]byte("NOTANARCHIVE")); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip a byte inside a compressed region.
	mut := append([]byte{}, b...)
	mut[len(mut)/2] ^= 0xff
	if restored, err := Restore(mut); err == nil && bytes.Equal(restored, data) {
		t.Error("corrupted archive restored to identical data")
	}
}

// steadyStateAllocs reports what one run allocates once pools, arena and
// workers are warm: the allocation count from testing.AllocsPerRun, and the
// bytes from the runtime's cumulative counter as the least of three rounds
// of as many runs. A sync.Pool that hands a worker on another P an empty
// slot makes one round in a few pay for a fresh deflate state (~1.2 MB),
// which recycling did not cause; a per-chunk allocation shows in every
// round.
//
// GC is held off across the rounds unless the process grows by 64 MiB,
// which only an arena-off engine does: a collection moves the arena's
// sync.Pool classes to their victim caches and the next one drops them,
// so collections inside a round make it re-allocate regions that
// recycling did not lose.
func steadyStateAllocs(run func()) (allocs, bytes float64) {
	const runs = 5
	run()
	allocs = testing.AllocsPerRun(runs, run)
	bytes = math.Inf(1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(ms.Sys-ms.HeapReleased) + 64<<20))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// TestCompressPiperSteadyStateAllocs keeps the arena data plane near
// allocation-free: 1 MiB through the Figure 4 pipeline at P=2 read 30
// allocations and 38 KB a run when the ceilings were set, and they allow
// that reading +25 % plus 32 allocations and 256 KiB for pool warm-up
// noise. The same input without arena recycling (340 allocations, 1.8 MB)
// must break both, which is what shows the ceilings bind.
func TestCompressPiperSteadyStateAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const (
		maxAllocs = 30*1.25 + 32
		maxBytes  = 37971*1.25 + 256<<10
	)
	data := testData(1234, 1<<20, 0.35)
	measure := func(arena bool) (float64, float64) {
		opts := core.DefaultOptions()
		opts.Workers, opts.ArenaBuffers = 2, arena
		eng := core.NewEngine(opts)
		defer eng.Close()
		return steadyStateAllocs(func() { _ = CompressPiper(eng, 8, data, io.Discard) })
	}
	allocs, bytes := measure(true)
	t.Logf("arena on: %.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("steady state allocates %.0f allocs / %.0f bytes per run, want <= %.0f / %.0f", allocs, bytes, float64(maxAllocs), float64(maxBytes))
	}
	allocs, bytes = measure(false)
	t.Logf("arena off: %.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs <= maxAllocs || bytes <= maxBytes {
		t.Errorf("ArenaBuffers = false stays under a ceiling (%.0f allocs / %.0f bytes per run against %.0f / %.0f): the ceilings do not bind", allocs, bytes, float64(maxAllocs), float64(maxBytes))
	}
}
