package lz

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"piper"
	"piper/internal/arena"
)

// Streaming compressor: the package's one LZ pipeline. It factorizes an
// io.Reader of unbounded length under a hard memory ceiling, as an SPS
// pipe_while:
//
//	stage 0 (serial):    read the next chunk off the stream into a
//	                     recycled arena region
//	stage 1 (parallel):  build the chunk's sparse match index, then
//	                     factorize the chunk's blocks — through a nested
//	                     pipeline, so one large chunk cannot serialize
//	                     the stream — and encode the factors
//	stage 2 (pipe_wait): emit the chunk record to the output writer, in
//	                     stream order
//
// Memory is bounded by construction, not by measurement: every buffer a
// chunk needs (raw bytes, index, per-block factor lists and scratch,
// encoded output) is reserved at a size derived from the chunk geometry
// alone — never from the input length — and checked out of the engine's
// arena size classes, and the pipeline's throttle K is derived from
// MemLimit divided by that per-chunk footprint. The steady state recycles
// every region, so a terabyte stream runs in the same few dozen MiB as a
// gigabyte one.
//
// This pipeline and its serial reference, StreamCompressSerial, are two
// drivers over one chunk reader (readChunk) and one container writer
// (containerWriter), so they write the same bytes and return the same
// count and error whatever r and w do. A short chunk is the last one. A
// read error ends the stream: the chunks read before it, the short one
// included, are written in order, no terminator follows, and the read
// error is returned. After a write error nothing more is written or read,
// and that error is returned, ahead of any read error.

// StreamMode selects how a chunk's blocks find their matches.
type StreamMode int

const (
	// ModeDense factorizes each block with an exact dense suffix array of
	// that block (PSV/NSV candidates, as in Factorize), merged
	// with sparse cross-block candidates from the chunk index. Best
	// compression; per-block scratch is 3 int32 per block byte.
	ModeDense StreamMode = iota
	// ModeSparse matches only on the sampled grid, in-block and cross-
	// block alike. Scratch falls to one int32 per SampleRate block bytes
	// and factorization becomes a single hash-probe sweep — the
	// throughput configuration for multi-GiB streams.
	ModeSparse
)

const (
	// DefaultStreamChunkSize is the default chunk granularity: large
	// enough that the sparse index finds distant repeats, small enough
	// that a handful of in-flight chunks fit comfortably under the
	// default ceiling.
	DefaultStreamChunkSize = 2 << 20
	// DefaultStreamBlockSize is the default intra-chunk parallel grain.
	DefaultStreamBlockSize = 128 << 10
	// DefaultSampleRate is the default sparse-index sampling step.
	DefaultSampleRate = 8
	// DefaultStreamMemLimit is the documented default ceiling on the
	// compressor's resident pipeline memory: 256 MiB.
	DefaultStreamMemLimit = 256 << 20
	// maxStreamChunkSize keeps chunk-absolute distances (and every scratch
	// reservation) within the arena's largest size class.
	maxStreamChunkSize = 16 << 20
	minStreamChunkSize = 64 << 10
	minStreamBlockSize = 4 << 10
	// streamNestedThrottle is the nested block pipeline's throttling
	// limit — the number of a chunk's blocks in flight at once, which the
	// footprint accounting multiplies into the ceiling.
	streamNestedThrottle = 4
)

// ErrMemLimit reports a StreamOptions whose MemLimit cannot hold even one
// chunk's working set; shrink ChunkSize or raise the limit.
var ErrMemLimit = errors.New("lz: MemLimit below the per-chunk working set; shrink ChunkSize or raise MemLimit")

var errCorrupt = errors.New("lz: corrupt stream")

// StreamOptions configures StreamCompress / StreamCompressSerial. The
// zero value selects the defaults above (dense mode, 2 MiB chunks,
// 128 KiB blocks, sample rate 8, 256 MiB ceiling).
type StreamOptions struct {
	ChunkSize  int
	BlockSize  int
	SampleRate int
	Mode       StreamMode
	// MemLimit is the hard ceiling on the pipeline's resident memory
	// (arena bytes checked out across all in-flight chunks). The chunk
	// throttle is derived as MemLimit / per-chunk footprint; 0 means
	// DefaultStreamMemLimit.
	MemLimit int64
	// Profile, when non-nil, profiles the outer pipeline from its serial
	// elision (piper.ProfilePipe) and stores the work/span report — the
	// scalability harness's input for the virtual-time speedup model. The
	// serial elision profiles each chunk's nested block pipeline in place,
	// so the span is a block's, not a chunk's.
	Profile *piper.PipelineReport
	// Stats, when non-nil, receives run counters at completion.
	Stats *StreamStats
}

// StreamStats reports one streaming run.
type StreamStats struct {
	Chunks, Blocks            int64
	RawBytes, CompressedBytes int64
	// PeakLiveArenaBytes is the high-water mark of the engine arena's
	// LiveBytes gauge observed at region checkout during the run — the
	// measured side of the MemLimit contract (serial runs, which use
	// plain allocations, report 0).
	PeakLiveArenaBytes int64
	// MaxArenaRequest is the largest single region request the run made;
	// bounded by the chunk geometry, never by the input length.
	MaxArenaRequest int64
	// DerivedThrottle is the chunk throttle actually used.
	DerivedThrottle int
}

func noteArenaRequest(track *atomic.Int64, n int64) {
	for {
		cur := track.Load()
		if n <= cur || track.CompareAndSwap(cur, n) {
			return
		}
	}
}

// arenaGet is the package's single arena checkout point: it records the
// request size against the sizing contract and the post-checkout live
// high-water mark in the run's counters.
func arenaGet(a *arena.Arena, sc *streamCounters, n int) *arena.Ref {
	r := a.Get(n)
	noteArenaRequest(&sc.maxReq, int64(n))
	noteArenaRequest(&sc.peakLive, a.Stats().LiveBytes)
	return r
}

// streamCounters is the atomic backing for StreamStats during a run.
type streamCounters struct {
	chunks, blocks   atomic.Int64
	peakLive, maxReq atomic.Int64
}

// normalized applies defaults and clamps, returning the derived chunk
// throttle alongside.
func (o StreamOptions) normalized() (StreamOptions, int, error) {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultStreamChunkSize
	}
	o.ChunkSize = min(max(o.ChunkSize, minStreamChunkSize), maxStreamChunkSize)
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultStreamBlockSize
	}
	o.BlockSize = min(max(o.BlockSize, minStreamBlockSize), o.ChunkSize)
	if o.SampleRate <= 0 {
		o.SampleRate = DefaultSampleRate
	}
	o.SampleRate = min(max(o.SampleRate, 1), 256)
	if o.MemLimit <= 0 {
		o.MemLimit = DefaultStreamMemLimit
	}
	k := int(o.MemLimit / o.chunkFootprint())
	if k < 1 {
		return o, 0, ErrMemLimit
	}
	if k > 32 {
		k = 32 // more in-flight chunks than any pool is wide buys nothing
	}
	return o, k, nil
}

// classCeil rounds a request to the arena size class that will actually
// be charged, so the footprint arithmetic matches the LiveBytes gauge.
func classCeil(n int) int64 {
	if n <= 256 {
		return 256
	}
	return int64(1) << bits.Len(uint(n-1))
}

// blockScratchBytes is one block's factorizer scratch reservation.
func (o StreamOptions) blockScratchBytes() int {
	if o.Mode == ModeSparse {
		return sparseScratchLen(o.BlockSize, o.SampleRate) * 4
	}
	return scratchLen(o.BlockSize) * 4
}

// blockFactorBytes is one block's worst-case factor-list reservation
// (every input position a literal factor) — the per-block, never
// per-input, sizing rule.
func (o StreamOptions) blockFactorBytes() int {
	return o.BlockSize * int(unsafe.Sizeof(Factor{}))
}

// chunkFootprint is the arena charge of one in-flight chunk, rounded to
// the classes the arena will bill: raw bytes, encoded output (worst case
// 2·raw, exact — see appendFactors), sparse index, and the nested block
// pipeline's in-flight scratch and factor regions. MemLimit divided by
// this is the chunk throttle.
func (o StreamOptions) chunkFootprint() int64 {
	return classCeil(o.ChunkSize) +
		classCeil(2*o.ChunkSize) +
		classCeil(indexScratchLen(o.ChunkSize, o.SampleRate, o.BlockSize)*4) +
		streamNestedThrottle*(classCeil(o.blockScratchBytes())+classCeil(o.blockFactorBytes()))
}

// Container format. All integers are uvarints.
//
//	magic "pLZ1"
//	chunkSize, blockSize, sampleRate, mode
//	chunk*:     seq, rawLen (>0), encLen, payload[encLen]
//	terminator: seq, 0, totalRawLen
//
// A chunk payload is a factor sequence (len, dist | 0, literal byte) with
// chunk-absolute distances; block boundaries are an encoder-internal
// parallelization detail and do not appear in the container. seq makes
// reordered records detectable, encLen makes mid-chunk truncation
// detectable, and the terminator's total makes dropped tails detectable.
var streamMagic = [4]byte{'p', 'L', 'Z', '1'}

// appendFactors encodes a factor list without a count header. Worst case
// is exactly 2 bytes per raw byte: a literal costs 2, and a copy of
// len >= minCopyLen costs at most 4+4 <= 2·len bytes.
func appendFactors(dst []byte, fs []Factor) []byte {
	for _, f := range fs {
		if f.Len == 0 {
			dst = append(dst, 0, f.Lit)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(f.Len))
		dst = binary.AppendUvarint(dst, uint64(f.Dist))
	}
	return dst
}

// readChunk fills buf from r and reports how many bytes it read. more is
// true only for a full chunk read without error: a short chunk is the
// last one, whatever r would return next. A read error ends the stream
// after the n bytes read before it and comes back as err.
func readChunk(r io.Reader, buf []byte) (n int, more bool, err error) {
	n, err = io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return n, false, nil
	}
	return n, err == nil, err
}

// containerWriter writes one pLZ1 container to w: the header, the chunk
// records in stream order and the terminator, each encoded here and
// nowhere else. It counts the bytes w accepted and keeps the first write
// error, after which it writes nothing more; failed publishes that error
// to a reader running beside the writer.
type containerWriter struct {
	w          io.Writer
	written    int64
	seq, total uint64
	err        error
	failed     atomic.Bool
	buf        [4 * binary.MaxVarintLen64]byte
}

func (c *containerWriter) write(b []byte) {
	if c.err != nil {
		return
	}
	n, err := writeFull(c.w, b)
	c.written += int64(n)
	if err != nil {
		c.err = err
		c.failed.Store(true)
	}
}

func (c *containerWriter) header(o StreamOptions) {
	b := append(c.buf[:0], streamMagic[:]...)
	b = binary.AppendUvarint(b, uint64(o.ChunkSize))
	b = binary.AppendUvarint(b, uint64(o.BlockSize))
	b = binary.AppendUvarint(b, uint64(o.SampleRate))
	c.write(binary.AppendUvarint(b, uint64(o.Mode)))
}

// record writes the next chunk's record: raw is the chunk, enc its
// encoded factors.
func (c *containerWriter) record(raw, enc []byte) {
	b := binary.AppendUvarint(c.buf[:0], c.seq)
	b = binary.AppendUvarint(b, uint64(len(raw)))
	c.write(binary.AppendUvarint(b, uint64(len(enc))))
	c.write(enc)
	c.seq++
	c.total += uint64(len(raw))
}

// end closes the container after its last record. A stream that ended
// cleanly gets the terminator; after a read error nothing follows the
// records, so the container decodes as truncated. The first write error
// wins over readErr.
func (c *containerWriter) end(readErr error) (int64, error) {
	if readErr == nil {
		b := binary.AppendUvarint(c.buf[:0], c.seq)
		b = binary.AppendUvarint(b, 0)
		c.write(binary.AppendUvarint(b, c.total))
	}
	if c.err != nil {
		return c.written, c.err
	}
	return c.written, readErr
}

// chunkJob carries one chunk through the outer pipeline.
type chunkJob struct {
	data []byte // view of raw
	out  []byte // encoded payload, view of outRef
	raw  *arena.Ref
	oref *arena.Ref
}

var chunkJobPool = sync.Pool{New: func() any { return new(chunkJob) }}

// StreamCompress compresses r onto w through eng's pipeline and returns
// the bytes written. The output, the count and the error are those of
// StreamCompressSerial(w, r, o) for the same options and input, also
// when r or w fails.
//
// Closing eng while a stream is in flight waits for the stream, which
// then completes normally. On an engine that is already closed,
// StreamCompress writes nothing and returns an error matching
// piper.ErrEngineClosed. (With o.Profile set it runs the serial elision
// on the calling goroutine, which needs no workers, so a closed engine
// still profiles.)
func StreamCompress(eng *piper.Engine, w io.Writer, r io.Reader, o StreamOptions) (int64, error) {
	o, k, err := o.normalized()
	if err != nil {
		return 0, err
	}
	a := eng.Arena()
	sc := &streamCounters{}
	cw := &containerWriter{w: w}
	// Stage 0 owns started, more and readErr. cw takes the header from
	// stage 0's first call and every record from stage 2; stage 0 reads
	// only its failed flag, to stop reading once a write has failed.
	var (
		started, more = false, true
		readErr       error
	)
	next := func() (*chunkJob, bool) {
		if !started {
			// The header goes out from inside the pipeline, before any
			// record: a launch the engine refused writes nothing.
			started = true
			cw.header(o)
		}
		if !more || cw.failed.Load() {
			return nil, false
		}
		ref := arenaGet(a, sc, o.ChunkSize)
		buf := ref.B[:o.ChunkSize]
		var n int
		n, more, readErr = readChunk(r, buf)
		if n == 0 {
			ref.Release()
			return nil, false
		}
		j := chunkJobPool.Get().(*chunkJob)
		j.raw, j.data = ref, buf[:n]
		return j, true
	}
	body := func(it *piper.Iter, j *chunkJob) {
		defer func() {
			if j.oref != nil {
				j.oref.Release()
			}
			j.raw.Release()
			*j = chunkJob{}
			chunkJobPool.Put(j)
		}()
		it.Continue(1)
		compressChunk(it, a, sc, o, j)
		it.Wait(2)
		cw.record(j.data, j.out)
	}
	if o.Profile != nil {
		*o.Profile = piper.ProfilePipe(eng, k, next, body)
	} else if err := pipeStream(eng, k, next, body); err != nil {
		return 0, err
	}
	written, err := cw.end(readErr)
	if err == nil {
		fillStreamStats(o.Stats, sc, k, cw.total, written)
	}
	return written, err
}

// pipeStream runs the stream's pipeline on eng and reports a closed
// engine's refusal to launch it as piper.ErrEngineClosed. The refusal
// comes before next first runs; any other panic passes through.
func pipeStream(eng *piper.Engine, k int, next func() (*chunkJob, bool), body func(*piper.Iter, *chunkJob)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); !ok || !errors.Is(e, piper.ErrEngineClosed) {
				panic(v)
			}
			err = fmt.Errorf("lz: stream compression: %w", piper.ErrEngineClosed)
		}
	}()
	piper.PipeThrottled(eng, k, next, body)
	return nil
}

// writeFull is w.Write with the io.Writer contract enforced: a short
// write that w does not report fails as io.ErrShortWrite instead of
// silently dropping the rest of a record.
func writeFull(w io.Writer, b []byte) (int, error) {
	n, err := w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return n, err
}

func fillStreamStats(st *StreamStats, sc *streamCounters, k int, raw uint64, written int64) {
	if st == nil {
		return
	}
	*st = StreamStats{
		Chunks:             sc.chunks.Load(),
		Blocks:             sc.blocks.Load(),
		RawBytes:           int64(raw),
		CompressedBytes:    written,
		PeakLiveArenaBytes: sc.peakLive.Load(),
		MaxArenaRequest:    sc.maxReq.Load(),
		DerivedThrottle:    k,
	}
}

// compressChunk builds the chunk's sparse index, factorizes its blocks in
// a nested pipeline, and encodes the factors into j.out. Runs entirely in
// the outer pipeline's parallel stage; the nested pipeline is spawned
// through the iteration handle (it.PipeWhileThrottled suspends this
// iteration until the inner pipeline drains), never through the engine's
// top-level entry point, which would park a worker.
func compressChunk(outer *piper.Iter, a *arena.Arena, sc *streamCounters, o StreamOptions, j *chunkJob) {
	n := len(j.data)
	idxLen := indexScratchLen(n, o.SampleRate, o.BlockSize)
	idxRef := arenaGet(a, sc, idxLen*4)
	defer idxRef.Release()
	var ix chunkIndex
	buildChunkIndex(&ix, j.data, o.SampleRate, o.BlockSize, arena.View[int32](idxRef, idxLen))

	j.oref = arenaGet(a, sc, 2*o.ChunkSize)
	out := j.oref.B[:0]
	sc.chunks.Add(1)

	// Nested pipeline: suffix-array construction (and all other per-block
	// factorization work) parallelizes across the chunk's blocks, so one
	// large chunk does not serialize the stream. The serial pipe_wait
	// stage concatenates the encodings in block order.
	type blockJob struct {
		start, end int
		factors    []Factor
		sref, fref *arena.Ref
	}
	var cur *blockJob
	start := 0
	outer.PipeWhileThrottled(streamNestedThrottle, func() bool {
		if start >= n {
			return false
		}
		end := start + o.BlockSize
		if end > n {
			end = n
		}
		cur = &blockJob{start: start, end: end}
		start = end
		return true
	}, func(it *piper.Iter) {
		b := cur // stage 0: capture before the next iteration's cond runs
		defer func() {
			if b.fref != nil {
				b.fref.Release()
			}
			if b.sref != nil {
				b.sref.Release()
			}
		}()
		it.Continue(1)
		b.sref = arenaGet(a, sc, o.blockScratchBytes())
		b.fref = arenaGet(a, sc, o.blockFactorBytes())
		b.factors = factorizeBlock(o.Mode, j.data, &ix, b.start, b.end,
			arena.View[int32](b.sref, o.blockScratchBytes()/4),
			arena.View[Factor](b.fref, b.end-b.start)[:0])
		sc.blocks.Add(1)
		it.Wait(2)
		out = appendFactors(out, b.factors)
	})
	j.out = out
}

// factorizeBlock dispatches on the stream mode.
func factorizeBlock(mode StreamMode, chunk []byte, ix *chunkIndex, start, end int, scratch []int32, dst []Factor) []Factor {
	if mode == ModeSparse {
		return factorizeBlockSparse(chunk, ix, start, end, scratch, dst)
	}
	return factorizeBlockDense(chunk, ix, start, end, scratch, dst)
}

// StreamCompressSerial is the single-threaded reference: same chunking,
// same index, same per-block factorization, same container — the stream
// the pipeline must reproduce bit for bit. It allocates its working set
// directly (no engine, no arena) and holds exactly one chunk's worth.
func StreamCompressSerial(w io.Writer, r io.Reader, o StreamOptions) (int64, error) {
	o, _, err := o.normalized()
	if err != nil {
		return 0, err
	}
	cw := &containerWriter{w: w}
	cw.header(o)
	chunk := make([]byte, o.ChunkSize)
	idx := make([]int32, indexScratchLen(o.ChunkSize, o.SampleRate, o.BlockSize))
	scratch := make([]int32, o.blockScratchBytes()/4)
	factors := make([]Factor, 0, o.BlockSize)
	out := make([]byte, 0, 2*o.ChunkSize)
	var readErr error
	for more := true; more && cw.err == nil; {
		var n int
		n, more, readErr = readChunk(r, chunk)
		if n == 0 {
			break
		}
		data := chunk[:n]
		var ix chunkIndex
		buildChunkIndex(&ix, data, o.SampleRate, o.BlockSize, idx)
		out = out[:0]
		for start := 0; start < n; start += o.BlockSize {
			end := min(start+o.BlockSize, n)
			factors = factorizeBlock(o.Mode, data, &ix, start, end, scratch, factors[:0])
			out = appendFactors(out, factors)
		}
		cw.record(data, out)
	}
	return cw.end(readErr)
}

// StreamDecompress decodes a container produced by StreamCompress or
// StreamCompressSerial, writing the raw bytes to w. Every header field is
// treated as attacker-controlled: sizes are bounded before any
// allocation, chunk sequence numbers must be contiguous, payloads must
// consume exactly their declared length while producing exactly their
// declared raw length, and the terminator's total must match.
func StreamDecompress(w io.Writer, r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, errCorrupt
	}
	if magic != streamMagic {
		return 0, fmt.Errorf("lz: bad stream magic %q", magic[:])
	}
	chunkSize, err := readBoundedUvarint(br, maxStreamChunkSize)
	if err != nil || chunkSize < minStreamChunkSize {
		return 0, errCorrupt
	}
	blockSize, err := readBoundedUvarint(br, chunkSize)
	if err != nil || blockSize < minStreamBlockSize {
		return 0, errCorrupt
	}
	if _, err := readBoundedUvarint(br, 256); err != nil { // sample rate
		return 0, errCorrupt
	}
	if _, err := readBoundedUvarint(br, int64(ModeSparse)); err != nil {
		return 0, errCorrupt
	}
	enc := make([]byte, 2*chunkSize)
	raw := make([]byte, 0, chunkSize)
	var written int64
	var seq, total uint64
	for {
		gotSeq, err := binary.ReadUvarint(br)
		if err != nil {
			return written, errCorrupt
		}
		rawLen, err := readBoundedUvarint(br, chunkSize)
		if err != nil {
			return written, fmt.Errorf("lz: chunk %d raw length overflow", seq)
		}
		if rawLen == 0 {
			// Terminator. Its sequence number is the chunk count, so a
			// record dropped or replayed anywhere upstream is caught even
			// if every surviving record decoded cleanly.
			declared, err := binary.ReadUvarint(br)
			if err != nil || gotSeq != seq || declared != total {
				return written, errCorrupt
			}
			return written, nil
		}
		if gotSeq != seq {
			return written, fmt.Errorf("lz: chunk out of order: got seq %d, want %d", gotSeq, seq)
		}
		encLen, err := readBoundedUvarint(br, 2*chunkSize)
		if err != nil || encLen == 0 {
			return written, fmt.Errorf("lz: chunk %d encoded length overflow", seq)
		}
		if _, err := io.ReadFull(br, enc[:encLen]); err != nil {
			return written, fmt.Errorf("lz: chunk %d truncated", seq)
		}
		raw, err = decodeChunkPayload(raw[:0], enc[:encLen], int(rawLen))
		if err != nil {
			return written, err
		}
		nw, werr := writeFull(w, raw)
		written += int64(nw)
		if werr != nil {
			return written, werr
		}
		seq++
		total += uint64(rawLen)
	}
}

// readBoundedUvarint reads one uvarint and rejects values above max
// before the caller can turn them into an allocation or an offset.
func readBoundedUvarint(br *bufio.Reader, max int64) (int64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil || v > uint64(max) {
		return 0, errCorrupt
	}
	return int64(v), nil
}

// decodeChunkPayload expands one chunk's factor sequence into dst. The
// payload must consume exactly len(enc) bytes and produce exactly rawLen
// output bytes; distances must stay inside the produced chunk prefix.
func decodeChunkPayload(dst, enc []byte, rawLen int) ([]byte, error) {
	for len(dst) < rawLen {
		l, n := binary.Uvarint(enc)
		if n <= 0 {
			return dst, errCorrupt
		}
		enc = enc[n:]
		if l == 0 {
			if len(enc) == 0 {
				return dst, errCorrupt
			}
			dst = append(dst, enc[0])
			enc = enc[1:]
			continue
		}
		d, n := binary.Uvarint(enc)
		if n <= 0 {
			return dst, errCorrupt
		}
		enc = enc[n:]
		if d == 0 || d > uint64(len(dst)) || l > uint64(rawLen-len(dst)) {
			return dst, fmt.Errorf("lz: factor escapes its chunk: dist %d len %d at %d", d, l, len(dst))
		}
		src := len(dst) - int(d)
		for k := 0; k < int(l); k++ {
			dst = append(dst, dst[src+k])
		}
	}
	if len(enc) != 0 {
		return dst, errCorrupt // declared encLen larger than the factors consumed
	}
	return dst, nil
}
