package lz

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/iotest"
	"time"

	"piper"
	"piper/internal/core"
	"piper/internal/workload"
)

// streamInput returns a fresh reader over the test corpus; every call
// yields the identical byte sequence, which is what lets serial and
// pipeline runs consume "the same file" independently.
func streamInput(size int64) io.Reader {
	return workload.StreamReader(0xBEEF, size, 4096, 0.4)
}

// TestStreamPipelineMatchesSerial: the pipeline container must equal the
// serial reference bit for bit across modes and engine configurations:
// stage 2's pipe_wait makes the emission order serial.
func TestStreamPipelineMatchesSerial(t *testing.T) {
	const size = 3 << 20
	for _, mode := range []struct {
		name string
		o    StreamOptions
	}{
		{"dense", StreamOptions{ChunkSize: 512 << 10, BlockSize: 64 << 10, Mode: ModeDense}},
		{"sparse", StreamOptions{ChunkSize: 512 << 10, BlockSize: 64 << 10, Mode: ModeSparse}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var want bytes.Buffer
			if _, err := StreamCompressSerial(&want, streamInput(size), mode.o); err != nil {
				t.Fatal(err)
			}
			// A MemLimit of exactly one chunk footprint derives throttle 1.
			oneChunk := mode.o
			norm, _, _ := oneChunk.normalized()
			oneChunk.MemLimit = norm.chunkFootprint()
			cfgs := []struct {
				name  string
				o     StreamOptions
				opts  []piper.Option
				wantK int // 0: any derived throttle
			}{
				{"P1-default", mode.o, nil, 0},
				{"P4-adaptive", mode.o, []piper.Option{piper.Workers(4)}, 0},
				{"P2-throttle1", oneChunk, []piper.Option{piper.Workers(2)}, 1},
			}
			for _, cfg := range cfgs {
				eng := piper.NewEngine(cfg.opts...)
				var got bytes.Buffer
				st := &StreamStats{}
				cfg.o.Stats = st
				if _, err := StreamCompress(eng, &got, streamInput(size), cfg.o); err != nil {
					eng.Close()
					t.Fatalf("%s: %v", cfg.name, err)
				}
				eng.Close()
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: pipeline container differs from serial reference (%d vs %d bytes)",
						cfg.name, got.Len(), want.Len())
				}
				if st.RawBytes != size || st.Chunks == 0 || st.Blocks == 0 {
					t.Fatalf("%s: implausible stats %+v", cfg.name, *st)
				}
				if cfg.wantK != 0 && st.DerivedThrottle != cfg.wantK {
					t.Fatalf("%s: derived throttle %d, want %d", cfg.name, st.DerivedThrottle, cfg.wantK)
				}
			}
			var dec bytes.Buffer
			if _, err := StreamDecompress(&dec, bytes.NewReader(want.Bytes())); err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			if _, err := io.Copy(&raw, streamInput(size)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec.Bytes(), raw.Bytes()) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

// TestStreamProfile: the instrumented entry point must produce the same
// container and a work/span measurement (the scalability harness's input)
// in both modes. The serial elision profiles each chunk's nested block
// pipeline, so the span is about a block's work rather than a chunk's and
// the dense row's parallelism exceeds the chunk count: a span of at least
// one chunk's work caps it at the number of chunks. The span is measured
// in wall time, so a block preempted by the host lengthens it: the check
// takes the largest parallelism of up to five profiles of the same input.
func TestStreamProfile(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	for _, mode := range []StreamMode{ModeSparse, ModeDense} {
		o := StreamOptions{ChunkSize: 128 << 10, BlockSize: 32 << 10, Mode: mode}
		var want bytes.Buffer
		if _, err := StreamCompressSerial(&want, streamInput(1<<20), o); err != nil {
			t.Fatal(err)
		}
		var rep piper.PipelineReport
		o.Profile = &rep
		best := 0.0
		for try := 0; try < 5; try++ {
			var got bytes.Buffer
			if _, err := StreamCompress(eng, &got, streamInput(1<<20), o); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("mode %d: profiled run container differs from serial reference", mode)
			}
			if rep.WorkNs <= 0 || rep.SpanNs <= 0 || rep.Iterations != 8 {
				t.Fatalf("mode %d: implausible profile: %+v", mode, rep)
			}
			t.Logf("mode %d: parallelism %.1f over %d chunks", mode, rep.Parallelism(), rep.Iterations)
			best = max(best, rep.Parallelism())
			if mode != ModeDense || best > float64(rep.Iterations) {
				break
			}
		}
		if mode == ModeDense && best <= float64(rep.Iterations) {
			t.Errorf("mode %d: parallelism at most %.1f over five profiles, want above %d: the span is not block-level",
				mode, best, rep.Iterations)
		}
	}
}

// streamContainer compresses size bytes serially and returns the container
// plus the offsets of each chunk record (for corruption surgery).
func streamContainer(t *testing.T, o StreamOptions, size int64) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := StreamCompressSerial(&buf, streamInput(size), o); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Re-parse to find record offsets: header is 4 magic bytes + 4
	// uvarints, then records of (seq, rawLen, encLen, payload).
	off := 4
	for i := 0; i < 4; i++ {
		_, n := uvarintAt(t, enc, off)
		off += n
	}
	var recs []int
	for {
		recs = append(recs, off)
		_, n := uvarintAt(t, enc, off) // seq
		off += n
		rawLen, n := uvarintAt(t, enc, off)
		off += n
		if rawLen == 0 {
			_, n = uvarintAt(t, enc, off) // total
			if off+n != len(enc) {
				t.Fatalf("trailing bytes after terminator: %d != %d", off+n, len(enc))
			}
			return enc, recs
		}
		encLen, n := uvarintAt(t, enc, off)
		off += n + int(encLen)
	}
}

func uvarintAt(t *testing.T, b []byte, off int) (uint64, int) {
	t.Helper()
	v, n := uvarint(b[off:])
	if n <= 0 {
		t.Fatalf("bad uvarint at %d", off)
	}
	return v, n
}

// uvarint is binary.Uvarint without the import clash in helpers.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if c < 0x80 {
			return v | uint64(c)<<(7*i), i + 1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if i >= 9 {
			return 0, -1
		}
	}
	return 0, 0
}

// TestStreamDecompressRejectsCorrupt: truncation mid-chunk, reordered
// chunk records, length overflows, and crafted headers must all produce
// errors — never panics, hangs, or silent misdecodes.
func TestStreamDecompressRejectsCorrupt(t *testing.T) {
	o := StreamOptions{ChunkSize: 64 << 10, BlockSize: 16 << 10, Mode: ModeSparse}
	enc, recs := streamContainer(t, o, 300<<10) // 5 chunks + terminator
	if len(recs) < 4 {
		t.Fatalf("want >= 3 chunk records, got %d", len(recs)-1)
	}
	decompress := func(b []byte) error {
		_, err := StreamDecompress(io.Discard, bytes.NewReader(b))
		return err
	}
	if err := decompress(enc); err != nil {
		t.Fatalf("pristine container failed: %v", err)
	}

	// Truncation at every prefix length in the middle of chunk 2's record.
	for cut := recs[1]; cut < recs[2]; cut += 131 {
		if err := decompress(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Dropping the terminator only must also fail.
	if err := decompress(enc[:recs[len(recs)-1]]); err == nil {
		t.Fatal("container without terminator decoded successfully")
	}

	// Reordered chunk records: swap the first two chunks wholesale. Every
	// field still parses; only the sequence numbers betray the reorder.
	swapped := append([]byte(nil), enc[:recs[0]]...)
	swapped = append(swapped, enc[recs[1]:recs[2]]...)
	swapped = append(swapped, enc[recs[0]:recs[1]]...)
	swapped = append(swapped, enc[recs[2]:]...)
	if err := decompress(swapped); err == nil {
		t.Fatal("reordered chunk records decoded successfully")
	}

	// Bit flip inside a payload: the factor structure must not survive.
	flip := append([]byte(nil), enc...)
	flip[(recs[1]+recs[2])/2] ^= 0x10
	if dec, err := decompressBytes(flip); err == nil {
		raw := new(bytes.Buffer)
		io.Copy(raw, streamInput(300<<10))
		if bytes.Equal(dec, raw.Bytes()) {
			t.Fatal("bit flip produced an identical decode")
		}
	}

	header := append([]byte(nil), enc[:recs[0]]...)
	crafted := map[string][]byte{
		"bad-magic":       append([]byte("pLZ9"), enc[4:]...),
		"chunk-too-big":   {'p', 'L', 'Z', '1', 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 1, 8, 0},         // chunkSize 2^25
		"raw-overflow":    append(append([]byte(nil), header...), 0, 0xFF, 0xFF, 0x7F, 1, 0),         // rawLen >> chunkSize
		"enc-zero":        append(append([]byte(nil), header...), 0, 1, 0),                           // encLen == 0
		"enc-overflow":    append(append([]byte(nil), header...), 0, 1, 0xFF, 0xFF, 0x7F),            // encLen > 2*chunkSize
		"factor-escape":   append(append([]byte(nil), header...), 0, 2, 2, 4, 9),                     // copy dist 9 with nothing produced
		"payload-short":   append(append([]byte(nil), header...), 0, 3, 2, 0, 'x'),                   // 1 raw byte from a 3-byte promise
		"payload-surplus": append(append([]byte(nil), header...), 0, 1, 4, 0, 'x', 0, 'y'),           // enc continues past rawLen
		"total-mismatch":  append(append([]byte(nil), header...), 0, 1, 2, 0, 'x', 1, 0, 0xFF, 0x7F), // terminator total wrong
	}
	for name, s := range crafted {
		if err := decompress(s); err == nil {
			t.Errorf("crafted stream %q decoded without error", name)
		}
	}
}

func decompressBytes(enc []byte) ([]byte, error) {
	var out bytes.Buffer
	_, err := StreamDecompress(&out, bytes.NewReader(enc))
	return out.Bytes(), err
}

// TestStreamMemLimitError: a ceiling below one chunk's working set must be
// rejected up front, not discovered by OOM.
func TestStreamMemLimitError(t *testing.T) {
	o := StreamOptions{ChunkSize: 8 << 20, MemLimit: 1 << 20}
	if _, err := StreamCompressSerial(io.Discard, streamInput(1<<10), o); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("serial: want ErrMemLimit, got %v", err)
	}
	eng := piper.NewEngine()
	defer eng.Close()
	if _, err := StreamCompress(eng, io.Discard, streamInput(1<<10), o); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("pipeline: want ErrMemLimit, got %v", err)
	}
}

// TestStreamMaxArenaRequestBound is the reserve-per-chunk regression
// guard: the largest arena region the compressor requests must be derived
// from the chunk geometry, never the input length — a 32 MiB stream
// through 2 MiB chunks must request nothing larger than the 2·ChunkSize
// output region.
func TestStreamMaxArenaRequestBound(t *testing.T) {
	o := StreamOptions{Mode: ModeSparse}
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	st := &StreamStats{}
	o.Stats = st
	if _, err := StreamCompress(eng, io.Discard, streamInput(32<<20), o); err != nil {
		t.Fatal(err)
	}
	bound := int64(2 * DefaultStreamChunkSize)
	if st.MaxArenaRequest > bound {
		t.Fatalf("stream max arena request %d exceeds chunk-derived bound %d", st.MaxArenaRequest, bound)
	}
}

// streamTestSize is the bounded-memory / round-trip stream length:
// 256 MiB by default (the documented ceiling's test point), 1 GiB when
// LZSTREAM_GB is set (the CI acceptance run).
func streamTestSize(t *testing.T) int64 {
	if os.Getenv("LZSTREAM_GB") != "" {
		return 1 << 30
	}
	if testing.Short() {
		return 64 << 20
	}
	return 256 << 20
}

// TestStreamBoundedMemory streams >= 256 MiB through the compressor under
// a 64 MiB arena ceiling and asserts both the arena's own gauge and the
// process heap stay bounded.
func TestStreamBoundedMemory(t *testing.T) {
	size := streamTestSize(t)
	const memLimit = 64 << 20
	cfgs := []struct {
		name string
		opts []piper.Option
	}{
		{"adaptive", []piper.Option{piper.Workers(2)}},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			eng := piper.NewEngine(cfg.opts...)
			st := &StreamStats{}
			o := StreamOptions{Mode: ModeSparse, MemLimit: memLimit, Stats: st}
			n, err := StreamCompress(eng, io.Discard, streamInput(size), o)
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.RawBytes != size || n != st.CompressedBytes {
				t.Fatalf("stats mismatch: raw=%d want %d, wrote %d vs %d", st.RawBytes, size, n, st.CompressedBytes)
			}
			if st.PeakLiveArenaBytes > memLimit {
				t.Fatalf("peak live arena bytes %d exceeds MemLimit %d", st.PeakLiveArenaBytes, memLimit)
			}
			if st.DerivedThrottle < 1 {
				t.Fatalf("throttle %d", st.DerivedThrottle)
			}

			runtime.GC()
			runtime.ReadMemStats(&after)
			// The heap check is the leak detector: after the run the
			// retained delta must be a small multiple of the working set,
			// nowhere near the input size. The ceiling here is far below
			// the smallest input this test streams.
			delta := int64(after.HeapInuse) - int64(before.HeapInuse)
			if delta > memLimit+(32<<20) {
				t.Fatalf("retained heap delta %d MiB exceeds ceiling (input %d MiB)",
					delta>>20, size>>20)
			}
			t.Logf("%s: %d MiB in, %d MiB out, peak arena %d MiB, retained delta %d MiB, throttle %d",
				cfg.name, size>>20, n>>20, st.PeakLiveArenaBytes>>20, delta>>20, st.DerivedThrottle)
		})
	}
}

// TestStreamGBRoundTrip is the acceptance run: a large seeded stream must
// compress bit-identically to the serial reference and round-trip exactly,
// without ever materializing input or output (digests on both sides), with
// pipeline memory under the default documented ceiling.
func TestStreamGBRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	size := streamTestSize(t)
	o := StreamOptions{Mode: ModeSparse}

	// Serial reference digest of the container.
	serialHash := sha256.New()
	if _, err := StreamCompressSerial(serialHash, streamInput(size), o); err != nil {
		t.Fatal(err)
	}

	// Pipeline run: container digest and, through an io.Pipe, the decoded
	// stream digest — compressor and decompressor run concurrently, so
	// peak memory is the pipeline's working set, not the stream size.
	eng := piper.NewEngine(piper.Workers(4))
	defer eng.Close()
	st := &StreamStats{}
	o.Stats = st
	pipeHash := sha256.New()
	pr, pw := io.Pipe()
	decDone := make(chan error, 1)
	decHash := sha256.New()
	go func() {
		_, err := StreamDecompress(decHash, pr)
		pr.CloseWithError(err)
		decDone <- err
	}()
	if _, err := StreamCompress(eng, io.MultiWriter(pipeHash, pw), streamInput(size), o); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-decDone; err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(pipeHash.Sum(nil), serialHash.Sum(nil)) {
		t.Fatal("pipeline container digest differs from serial reference")
	}
	rawHash := sha256.New()
	if _, err := io.Copy(rawHash, streamInput(size)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decHash.Sum(nil), rawHash.Sum(nil)) {
		t.Fatal("round-trip digest differs from input digest")
	}
	if st.PeakLiveArenaBytes > DefaultStreamMemLimit {
		t.Fatalf("peak live arena bytes %d exceeds the documented %d ceiling",
			st.PeakLiveArenaBytes, int64(DefaultStreamMemLimit))
	}
	t.Logf("%d MiB round-tripped, %d MiB compressed, peak arena %d MiB, throttle %d",
		size>>20, st.CompressedBytes>>20, st.PeakLiveArenaBytes>>20, st.DerivedThrottle)
}

// TestDenseOutputGolden pins the dense encoder's output bytes. The
// digest was computed before the suffix sort moved from prefix doubling
// to induced sorting: a suffix array is unique, so a sorter change that
// moves the digest changed the format, not the speed.
func TestDenseOutputGolden(t *testing.T) {
	const streamDigest = "74ce7e26d478a338478dbb19d083537db46742ba584f5a7c8637522777aa7969"
	h := sha256.New()
	if _, err := StreamCompressSerial(h, workload.StreamReader(1, 4<<20, 4096, 0.35), StreamOptions{Mode: ModeDense}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != streamDigest {
		t.Errorf("StreamCompressSerial(ModeDense) digest %s, want %s", got, streamDigest)
	}
}

// FuzzStreamRoundTrip has three phases. enc, read as a container, must
// never panic StreamDecompress, whatever the bytes. Then enc followed by
// size%384 KiB of workload.StreamReader(seed, ...) is compressed under
// options drawn from the remaining arguments (dense or sparse, ChunkSize
// 64–256 KiB, BlockSize 4–64 KiB, MemLimit 1–4 chunk footprints by
// seed%4): StreamCompressSerial's container must decompress back to the
// input, and StreamCompress on a Workers(2) engine must write exactly the
// serial bytes at that many chunks in flight, its arena's live bytes never
// past MemLimit. Last, the same input behind a reader that fails after an
// offset drawn from seed: both drivers must write the same bytes, return
// the same count, and fail with the reader's error. The seed corpus in
// testdata/fuzz/FuzzStreamRoundTrip holds valid, truncated and junk
// containers, the empty stream, and multi-chunk streams in both modes.
func FuzzStreamRoundTrip(f *testing.F) {
	eng := piper.NewEngine(piper.Workers(2))
	f.Cleanup(eng.Close)
	f.Fuzz(func(t *testing.T, enc []byte, seed uint64, size uint32, chunkKiB, blockKiB uint8, sparse bool) {
		_, _ = StreamDecompress(io.Discard, bytes.NewReader(enc))

		tail, err := io.ReadAll(workload.StreamReader(seed, int64(size%(384<<10)), 4096, 0.35))
		if err != nil {
			t.Fatal(err)
		}
		raw := append(append([]byte(nil), enc...), tail...)
		o := StreamOptions{
			ChunkSize: (64 + int(chunkKiB)%193) << 10,
			BlockSize: (4 + int(blockKiB)%61) << 10,
			Mode:      ModeDense,
		}
		if sparse {
			o.Mode = ModeSparse
		}
		no, _, err := o.normalized()
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		k := 1 + int(seed%4)
		o.MemLimit = int64(k) * no.chunkFootprint()
		var want bytes.Buffer
		if _, err := StreamCompressSerial(&want, bytes.NewReader(raw), o); err != nil {
			t.Fatalf("%+v: serial: %v", o, err)
		}
		if dec, err := decompressBytes(want.Bytes()); err != nil || !bytes.Equal(dec, raw) {
			t.Fatalf("%+v: %d bytes round-tripped to %d (err %v)", o, len(raw), len(dec), err)
		}
		var got bytes.Buffer
		var st StreamStats
		po := o
		po.Stats = &st
		if _, err := StreamCompress(eng, &got, bytes.NewReader(raw), po); err != nil {
			t.Fatalf("%+v: pipeline: %v", o, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%+v: pipeline container differs from serial reference (%d vs %d bytes)", o, got.Len(), want.Len())
		}
		if st.DerivedThrottle != k || st.PeakLiveArenaBytes > o.MemLimit {
			t.Fatalf("%+v: chunk throttle %d (want %d), peak live arena %d B past the %d B MemLimit", o, st.DerivedThrottle, k, st.PeakLiveArenaBytes, o.MemLimit)
		}

		boom := errors.New("read failed")
		off := int((seed >> 2) % uint64(len(raw)+1))
		failing := func() io.Reader { return io.MultiReader(bytes.NewReader(raw[:off]), iotest.ErrReader(boom)) }
		want.Reset()
		got.Reset()
		wantN, wantErr := StreamCompressSerial(&want, failing(), o)
		n, err := StreamCompress(eng, &got, failing(), o)
		if wantErr != boom || err != boom || n != wantN || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%+v, read error at %d: pipeline wrote %d B (reported %d, %v), serial %d B (reported %d, %v)",
				o, off, got.Len(), n, err, want.Len(), wantN, wantErr)
		}
	})
}

// BenchmarkStreamCompressSerialDense times the dense block kernel on
// lz-stream's input, 4 MiB of workload.StreamReader(1, 4<<20, 4096, 0.35),
// through StreamCompressSerial: no engine, so only the factorizer and the
// container encoding are measured. The input is read once, outside the
// timer.
func BenchmarkStreamCompressSerialDense(b *testing.B) {
	data, err := io.ReadAll(workload.StreamReader(1, 4<<20, 4096, 0.35))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamCompressSerial(io.Discard, bytes.NewReader(data), StreamOptions{Mode: ModeDense}); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyStateAllocs reports what one run allocates once pools, arena and
// workers are warm: the allocation count from testing.AllocsPerRun, and the
// bytes from the runtime's cumulative counter as the least of three rounds
// of as many runs (a sync.Pool refill lands in one round in a few; a
// per-block allocation shows in every round).
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

// TestStreamSteadyStateAllocs keeps chunk and block factorization in
// recycled arena regions: 1 MiB through StreamCompress in ModeDense at
// P=2, to io.Discard, read 30 allocations and 1.7 KB a run when the
// ceilings were set, and they allow that reading +25 % plus 16
// allocations and 256 KiB. The same input without arena recycling (78–90
// allocations, 59.9 MB) must break both, which is what shows the
// ceilings bind.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const (
		maxAllocs = 30*1.25 + 16
		maxBytes  = 1682*1.25 + 256<<10
	)
	data := workload.TextStream(1234, 1<<20, 4096, 0.35)
	o := StreamOptions{Mode: ModeDense}
	measure := func(arena bool) (float64, float64) {
		opts := core.DefaultOptions()
		opts.Workers, opts.ArenaBuffers = 2, arena
		eng := core.NewEngine(opts)
		defer eng.Close()
		return steadyStateAllocs(func() { _, _ = StreamCompress(eng, io.Discard, bytes.NewReader(data), o) })
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

// failingReader yields r's bytes until after bytes have been read, then
// fails with err and records when it first did.
type failingReader struct {
	r      io.Reader
	after  int64
	err    error
	failed time.Time
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.after <= 0 {
		if f.failed.IsZero() {
			f.failed = time.Now()
		}
		return 0, f.err
	}
	n, err := f.r.Read(p[:min(int64(len(p)), f.after)])
	f.after -= int64(n)
	return n, err
}

// shortWriter accepts its first ok Write calls and answers every later
// one with half of it written and err (nil models a writer that breaks
// the io.Writer contract by not reporting its short write). got holds
// every byte it reported written.
type shortWriter struct {
	ok     int
	err    error
	failed time.Time
	got    bytes.Buffer
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if w.ok > 0 {
		w.ok--
		return w.got.Write(p)
	}
	if w.failed.IsZero() {
		w.failed = time.Now()
	}
	n, _ := w.got.Write(p[:len(p)/2])
	return n, w.err
}

// eofThenMore returns its first reader's bytes, then io.EOF once, then
// its second reader's bytes: an EOF that is not final.
type eofThenMore struct {
	first, rest io.Reader
	eofSeen     bool
}

func (r *eofThenMore) Read(p []byte) (int, error) {
	if r.eofSeen {
		return r.rest.Read(p)
	}
	n, err := r.first.Read(p)
	if err == io.EOF {
		r.eofSeen = true
	}
	return n, err
}

// TestStreamDriversAgree: StreamCompress writes what StreamCompressSerial
// writes, returns the same count and the same error, when the reader
// fails, trickles, or ends early and when the writer fails or writes
// short, on one and two workers, one chunk in flight and the derived
// throttle. A failed stream ends without a terminator, so its container
// does not decode.
func TestStreamDriversAgree(t *testing.T) {
	const chunk = 64 << 10
	boom, full := errors.New("disk on fire"), errors.New("device full")
	// A repetitive input factorizes in long copies, which halves the
	// test's time under the race detector.
	raw, err := io.ReadAll(workload.StreamReader(0xBEEF, 2*chunk+chunk/2, 4096, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	failAt := func(off int) func() io.Reader {
		return func() io.Reader { return io.MultiReader(bytes.NewReader(raw[:off]), iotest.ErrReader(boom)) }
	}
	readers := []struct {
		name string
		new  func() io.Reader
	}{
		{"fail-mid-chunk", failAt(chunk + chunk/3)},
		{"fail-at-boundary", failAt(2 * chunk)},
		{"data-err", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(raw)) }},
		{"one-byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw)) }},
		{"half", func() io.Reader { return iotest.HalfReader(bytes.NewReader(raw)) }},
		{"eof-then-more", func() io.Reader {
			return &eofThenMore{first: bytes.NewReader(raw[:chunk+chunk/3]), rest: bytes.NewReader(raw[chunk+chunk/3:])}
		}},
	}
	// The header is one Write and a record two: ok 3 fails on the second
	// record's prefix, ok 4 on its payload.
	writers := []struct {
		name string
		new  func() *shortWriter
	}{
		{"good", func() *shortWriter { return &shortWriter{ok: math.MaxInt} }},
		{"short-unreported", func() *shortWriter { return &shortWriter{ok: 3} }},
		{"fails-after-4", func() *shortWriter { return &shortWriter{ok: 4, err: full} }},
	}
	o := StreamOptions{ChunkSize: chunk, BlockSize: 32 << 10, Mode: ModeSparse}
	oneChunk := o
	norm, _, _ := o.normalized()
	oneChunk.MemLimit = norm.chunkFootprint()
	engines := []*piper.Engine{piper.NewEngine(piper.Workers(1)), piper.NewEngine(piper.Workers(2))}
	for _, eng := range engines {
		defer eng.Close()
	}
	for _, rd := range readers {
		for _, wr := range writers {
			sw := wr.new()
			wantN, wantErr := StreamCompressSerial(sw, rd.new(), o)
			want := sw.got.Bytes()
			if _, err := decompressBytes(want); (err == nil) != (wantErr == nil) {
				t.Errorf("%s/%s: serial returned %v, its container decodes with %v", rd.name, wr.name, wantErr, err)
			}
			for p, eng := range engines {
				for _, po := range []StreamOptions{oneChunk, o} {
					for rep := 0; rep < 10; rep++ {
						w := wr.new()
						n, err := StreamCompress(eng, w, rd.new(), po)
						if n != wantN || err != wantErr || !bytes.Equal(w.got.Bytes(), want) {
							t.Errorf("%s/%s P=%d MemLimit=%d rep %d: pipeline wrote %d B (reported %d, %v), serial %d B (reported %d, %v)",
								rd.name, wr.name, p+1, po.MemLimit, rep, w.got.Len(), n, err, len(want), wantN, wantErr)
							break
						}
					}
				}
			}
		}
	}
}

// streamCompressFails runs StreamCompress into a failure and checks that
// the failure comes back as want within a second of it happening, that
// the engine drains (no live arena bytes, pipelines or iteration
// frames), and that the same engine then still round-trips a stream.
func streamCompressFails(t *testing.T, w io.Writer, r io.Reader, failedAt func() time.Time, want error) {
	t.Helper()
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	o := StreamOptions{Mode: ModeSparse}
	done := make(chan error, 1)
	go func() {
		_, err := StreamCompress(eng, w, r, o)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("StreamCompress did not return after its failure")
	}
	returned := time.Now()
	if !errors.Is(err, want) {
		t.Fatalf("StreamCompress returned %v, want %v", err, want)
	}
	if failedAt().IsZero() {
		t.Fatal("the failure never fired")
	}
	if d := returned.Sub(failedAt()); d > time.Second {
		t.Errorf("StreamCompress returned %v after the failure, want within 1s", d)
	}
	if s := eng.Stats(); s.LiveArenaBytes != 0 || s.LivePipelines != 0 || s.LiveIterFrames != 0 {
		t.Errorf("engine not drained after the failure: live arena %d B, pipelines %d, iteration frames %d",
			s.LiveArenaBytes, s.LivePipelines, s.LiveIterFrames)
	}
	var enc bytes.Buffer
	if _, err := StreamCompress(eng, &enc, streamInput(3<<20), o); err != nil {
		t.Fatalf("StreamCompress after the failure: %v", err)
	}
	dec, err := decompressBytes(enc.Bytes())
	raw, _ := io.ReadAll(streamInput(3 << 20))
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("round trip after the failure: err=%v equal=%v", err, bytes.Equal(dec, raw))
	}
}

// TestStreamCompressReaderError: a reader that fails after 3 MiB, inside
// the second chunk, fails the stream with the reader's error.
func TestStreamCompressReaderError(t *testing.T) {
	boom := errors.New("disk on fire")
	r := &failingReader{r: streamInput(8 << 20), after: 3 << 20, err: boom}
	streamCompressFails(t, io.Discard, r, func() time.Time { return r.failed }, boom)
}

// startSignal passes r's bytes through and closes started on the first
// Read, which StreamCompress makes from inside its pipeline.
type startSignal struct {
	r       io.Reader
	started chan struct{}
}

func (s *startSignal) Read(p []byte) (int, error) {
	if s.started != nil {
		close(s.started)
		s.started = nil
	}
	return s.r.Read(p)
}

// TestStreamCompressCloseDuringRun: closing the engine while a stream is
// in flight waits for the stream. An 8 MiB dense stream starts on
// Workers(2) and Close comes at several delays after its first read:
// each time Close returns, the stream returns no error, and its bytes
// equal the serial reference's.
func TestStreamCompressCloseDuringRun(t *testing.T) {
	const size = 8 << 20
	o := StreamOptions{ChunkSize: 256 << 10, BlockSize: 32 << 10, Mode: ModeDense}
	var want bytes.Buffer
	if _, err := StreamCompressSerial(&want, streamInput(size), o); err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond} {
		eng := piper.NewEngine(piper.Workers(2))
		r := &startSignal{r: streamInput(size), started: make(chan struct{})}
		started := r.started
		var got bytes.Buffer
		done := make(chan error, 1)
		go func() {
			_, err := StreamCompress(eng, &got, r, o)
			done <- err
		}()
		<-started
		time.Sleep(delay)
		if len(done) != 0 {
			t.Logf("delay %v: the stream finished before Close", delay)
		}
		closed := make(chan struct{})
		go func() {
			eng.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(2 * time.Minute):
			t.Fatalf("delay %v: Close did not return", delay)
		}
		if err := <-done; err != nil {
			t.Fatalf("delay %v: StreamCompress returned %v", delay, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("delay %v: container differs from serial reference (%d vs %d bytes)", delay, got.Len(), want.Len())
		}
	}
}

// TestStreamCompressClosedEngine: on an engine that is already closed,
// StreamCompress writes nothing and fails with ErrEngineClosed, and the
// stream's input is never read.
func TestStreamCompressClosedEngine(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	eng.Close()
	r := &startSignal{r: streamInput(1 << 20), started: make(chan struct{})}
	var got bytes.Buffer
	n, err := StreamCompress(eng, &got, r, StreamOptions{})
	if !errors.Is(err, piper.ErrEngineClosed) {
		t.Fatalf("StreamCompress on a closed engine = %v, want ErrEngineClosed", err)
	}
	if n != 0 || got.Len() != 0 {
		t.Errorf("StreamCompress wrote %d bytes (reported %d), want 0", got.Len(), n)
	}
	if r.started == nil {
		t.Error("StreamCompress read its input on a closed engine")
	}
}

// TestStreamCompressShortWrite: a writer that stops after the header and
// the first chunk record (three Write calls) fails the stream, whether
// it reports its short write or not.
func TestStreamCompressShortWrite(t *testing.T) {
	full := errors.New("device full")
	for _, c := range []struct {
		name      string
		err, want error
	}{
		{"reported", full, full},
		{"unreported", nil, io.ErrShortWrite},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := &shortWriter{ok: 3, err: c.err}
			streamCompressFails(t, w, streamInput(8<<20), func() time.Time { return w.failed }, c.want)
		})
	}
}
