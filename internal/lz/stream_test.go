package lz

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"piper"
	"piper/internal/workload"
)

// streamInput returns a fresh reader over the test corpus; every call
// yields the identical byte sequence, which is what lets serial and
// pipeline runs consume "the same file" independently.
func streamInput(size int64) io.Reader {
	return workload.StreamReader(0xBEEF, size, 4096, 0.4)
}

// TestStreamPipelineMatchesSerial: the pipeline container must equal the
// serial reference bit for bit across modes and engine configurations —
// the streaming analogue of TestPipelineMatchesSerial.
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
			cfgs := []struct {
				name string
				o    StreamOptions
				opts []piper.Option
			}{
				{"P1-default", mode.o, nil},
				{"P4-adaptive", mode.o, []piper.Option{piper.Workers(4)}},
				{"P4-serialblocks", func() StreamOptions { o := mode.o; o.SerialBlocks = true; return o }(),
					[]piper.Option{piper.Workers(4)}},
				{"P2-throttle1", func() StreamOptions { o := mode.o; o.Throttle = 1; return o }(),
					[]piper.Option{piper.Workers(2)}},
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
// container and a work/span measurement (the scalability harness's input).
func TestStreamProfile(t *testing.T) {
	o := StreamOptions{ChunkSize: 128 << 10, BlockSize: 32 << 10, Mode: ModeSparse}
	var want bytes.Buffer
	if _, err := StreamCompressSerial(&want, streamInput(1<<20), o); err != nil {
		t.Fatal(err)
	}
	var rep piper.PipelineReport
	o.Profile = &rep
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()
	var got bytes.Buffer
	if _, err := StreamCompress(eng, &got, streamInput(1<<20), o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("profiled run container differs from serial reference")
	}
	if rep.WorkNs <= 0 || rep.SpanNs <= 0 || rep.Iterations != 8 {
		t.Fatalf("implausible profile: %+v", rep)
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
	resetMaxArenaRequest()
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
	if got := debugMaxArenaRequest.Load(); got > bound {
		t.Fatalf("package max arena request %d exceeds chunk-derived bound %d", got, bound)
	}

	// Block pipeline with a caller-supplied per-input block size: the
	// clamp must keep the scratch reservation at the maxFactorBlockSize
	// bound instead of scaling with len(data).
	resetMaxArenaRequest()
	data := workload.TextStream(9, 3<<20, 4096, 0.35)
	enc := Compress(eng, 0, data, len(data)) // pre-clamp: a 5n-int32 region for n = 3 MiB
	blockBound := int64(scratchLen(maxFactorBlockSize) * 4)
	if got := debugMaxArenaRequest.Load(); got > blockBound {
		t.Fatalf("block max arena request %d exceeds clamp-derived bound %d", got, blockBound)
	}
	if dec, err := Decompress(enc); err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("clamped block stream round trip: err=%v equal=%v", err, bytes.Equal(dec, data))
	}
	if !bytes.Equal(enc, CompressSerial(data, len(data))) {
		t.Fatal("clamped pipeline stream differs from clamped serial stream")
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
