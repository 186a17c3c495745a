package dedup

import (
	"bytes"
	"compress/flate"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Archive format:
//
//	magic "PDAR1\x00"
//	records:
//	  0x00 unique: uvarint rawLen, uvarint compLen, compLen bytes, 20-byte SHA-1
//	  0x01 ref:    uvarint chunkIndex (index among unique+ref records so far
//	               is NOT used; the index counts unique chunks only)
//	  0xFF end:    uvarint total raw size
var archiveMagic = []byte("PDAR1\x00")

const (
	recUnique = 0x00
	recRef    = 0x01
	recEnd    = 0xFF
)

// Record is one archive entry produced by the pipeline's final stage.
type Record struct {
	// Seq is the chunk's position in the input stream.
	Seq int64
	// Dup marks a duplicate chunk; RefIndex identifies the unique chunk
	// it repeats.
	Dup      bool
	RefIndex int64
	// RawLen is the chunk's uncompressed length.
	RawLen int
	// Compressed holds the deflate stream for unique chunks.
	Compressed []byte
	// Sum is the chunk's SHA-1.
	Sum [sha1.Size]byte
}

// Writer serializes records to an archive stream. It must be driven from
// a single (serial) pipeline stage, in sequence order.
type Writer struct {
	w       io.Writer
	err     error
	scratch [binary.MaxVarintLen64]byte
	kind    [1]byte // record-kind byte, kept off the heap
	total   int64
	uniques int64
}

// NewWriter writes the archive header.
func NewWriter(w io.Writer) *Writer {
	aw := &Writer{w: w}
	_, aw.err = w.Write(archiveMagic)
	return aw
}

func (aw *Writer) uvarint(v uint64) {
	if aw.err != nil {
		return
	}
	n := binary.PutUvarint(aw.scratch[:], v)
	_, aw.err = aw.w.Write(aw.scratch[:n])
}

func (aw *Writer) kindByte(k byte) {
	aw.kind[0] = k
	_, aw.err = aw.w.Write(aw.kind[:])
}

// WriteRecord appends one record.
func (aw *Writer) WriteRecord(r *Record) {
	if aw.err != nil {
		return
	}
	aw.total += int64(r.RawLen)
	if r.Dup {
		aw.kindByte(recRef)
		aw.uvarint(uint64(r.RefIndex))
		return
	}
	aw.kindByte(recUnique)
	aw.uvarint(uint64(r.RawLen))
	aw.uvarint(uint64(len(r.Compressed)))
	if aw.err == nil {
		_, aw.err = aw.w.Write(r.Compressed)
	}
	if aw.err == nil {
		_, aw.err = aw.w.Write(r.Sum[:])
	}
	aw.uniques++
}

// Close writes the end record and reports any accumulated error.
func (aw *Writer) Close() error {
	if aw.err != nil {
		return aw.err
	}
	aw.kindByte(recEnd)
	aw.uvarint(uint64(aw.total))
	return aw.err
}

// Restore decompresses an archive back into the original stream,
// verifying each unique chunk's length and SHA-1. Its serial loop is the
// reference RestorePiper is checked against.
func Restore(archive []byte) ([]byte, error) {
	recs, hint, err := parseRecords(archive)
	if err != nil {
		return nil, err
	}
	var out []byte
	for {
		rec, done, err := recs.next()
		switch {
		case err != nil:
			return nil, err
		case done:
			return out, nil
		case rec.dup:
			out = append(out, out[rec.from:][:rec.rawLen]...)
			continue
		}
		raw, err := unpack(rec)
		if err != nil {
			return nil, err
		}
		out = appendChunk(out, raw, hint)
	}
}

// appendChunk appends a verified unique chunk to the output. The output
// is presized to hint at the first one, so an archive rejected at its
// first chunk reserves nothing.
func appendChunk(out, raw []byte, hint int) []byte {
	if out == nil {
		out = make([]byte, 0, hint)
	}
	return append(out, raw...)
}

// rawRecord is one archive record before decompression: a unique chunk,
// whose deflate stream aliases the archive, or a dup, which repeats an
// earlier unique that the output already holds.
type rawRecord struct {
	dup    bool
	rawLen int
	comp   []byte          // a unique's deflate stream
	sum    [sha1.Size]byte // a unique's SHA-1
	from   int             // a dup's: where its unique starts in the output
}

// uniqueChunk is where a unique record's chunk lies in the output.
type uniqueChunk struct{ from, rawLen int }

// records decodes an archive's records in order. It keeps one
// uniqueChunk per unique record and nothing per ref, so a 2-byte ref
// costs a reader no memory.
type records struct {
	b       []byte        // the records not yet read
	uniques []uniqueChunk // every unique record read so far
	total   int           // the output length of the records read so far
}

// maxTotal bounds an archive's total: the output must fit in one slice,
// and unpack reads one byte past a chunk's recorded length.
const maxTotal = math.MaxInt - 1

// maxHintExpansion bounds the output presize per archive byte: 16× holds
// a text-like stream with few repeats (about 4×) exactly, and a more
// repetitive stream grows its output past it by append.
const maxHintExpansion = 16

var errMalformed = errors.New("dedup: truncated or malformed archive")

// parseRecords checks a whole archive without inflating it and returns
// a reader at its first record. records.next is the one place that
// decides what a well-formed archive is: every compressed span lies
// inside the archive, every ref names an earlier unique record, and the
// end record's total is the sum of the records' lengths. No recorded
// length sizes an allocation: hint is the total with each record trusted
// for at most maxChunk bytes, which is the exact total of any archive
// this package's chunker wrote, and with the whole trusted for at most
// maxHintExpansion bytes per archive byte, so that refs, two bytes each,
// cannot claim their unique's length many times over.
func parseRecords(archive []byte) (recs records, hint int, err error) {
	b, ok := bytes.CutPrefix(archive, archiveMagic)
	if !ok {
		return records{}, 0, errors.New("dedup: bad archive magic")
	}
	check := records{b: b}
	for {
		rec, done, err := check.next()
		if err != nil {
			return records{}, 0, err
		}
		if done {
			break
		}
		hint += min(rec.rawLen, maxChunk)
	}
	if hint/maxHintExpansion > len(archive) {
		hint = maxHintExpansion * len(archive)
	}
	// The reader refills check's table with the same entries as it goes.
	return records{b: b, uniques: check.uniques[:0]}, hint, nil
}

// next decodes the next record; done reports a well-formed end record.
func (r *records) next() (rec rawRecord, done bool, err error) {
	if len(r.b) == 0 {
		return rec, false, errMalformed
	}
	// Every record is a kind byte and a uvarint: rawLen, index or total.
	kind := r.b[0]
	v, n := binary.Uvarint(r.b[1:])
	if n <= 0 {
		return rec, false, errMalformed
	}
	b := r.b[1+n:]
	switch kind {
	case recUnique:
		compLen, m := binary.Uvarint(b)
		b = b[max(m, 0):]
		if m <= 0 || len(b) < sha1.Size || compLen > uint64(len(b)-sha1.Size) {
			return rec, false, errMalformed
		}
		rec.comp, b = b[:compLen:compLen], b[compLen:]
		b = b[copy(rec.sum[:], b):]
	case recRef:
		if v >= uint64(len(r.uniques)) {
			return rec, false, fmt.Errorf("dedup: dangling chunk reference %d", v)
		}
		u := r.uniques[v]
		rec.dup, rec.from, v = true, u.from, uint64(u.rawLen)
	case recEnd:
		if v != uint64(r.total) {
			return rec, false, fmt.Errorf("dedup: size mismatch: records hold %d bytes, end record says %d", r.total, v)
		}
		return rec, true, nil
	default:
		return rec, false, fmt.Errorf("dedup: unknown record kind 0x%02x", kind)
	}
	if v > uint64(maxTotal-r.total) {
		return rec, false, errors.New("dedup: archive holds more bytes than fit in memory")
	}
	rec.rawLen = int(v)
	if !rec.dup {
		r.uniques = append(r.uniques, uniqueChunk{r.total, rec.rawLen})
	}
	r.total += rec.rawLen
	r.b = b
	return rec, false, nil
}

// inflaterPool recycles flate readers as compressorPool recycles writers:
// flate.NewReader allocates ~40 KiB of state, ten times a typical chunk.
var inflaterPool sync.Pool

// unpack inflates one unique record and checks it against its recorded
// length and SHA-1. The length is trusted only as a capacity hint up to
// maxChunk, and the stream is read at most one byte past it, so a record
// whose stream expands beyond its length costs no more than the record.
func unpack(rec rawRecord) ([]byte, error) {
	src := bytes.NewReader(rec.comp)
	fr, ok := inflaterPool.Get().(io.ReadCloser)
	if ok {
		fr.(flate.Resetter).Reset(src, nil)
	} else {
		fr = flate.NewReader(src)
	}
	defer inflaterPool.Put(fr)
	lr := io.LimitReader(fr, int64(rec.rawLen)+1)
	raw := make([]byte, 0, min(rec.rawLen, maxChunk)+1)
	for {
		if len(raw) == cap(raw) {
			raw = slices.Grow(raw, 1)
		}
		n, err := lr.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(raw) != rec.rawLen {
		return nil, fmt.Errorf("dedup: chunk does not inflate to its recorded %d bytes", rec.rawLen)
	}
	if sha1.Sum(raw) != rec.sum {
		return nil, errors.New("dedup: SHA-1 mismatch")
	}
	return raw, nil
}

// compressor pairs a reusable deflate state with the append sink it
// writes into. flate.NewWriter allocates the full ~600KiB deflate state
// per call, which dominated the pipeline's allocation profile; Reset
// recycles it instead.
type compressor struct {
	fw   *flate.Writer
	sink sliceWriter
}

// sliceWriter is an io.Writer appending into a caller-provided slice.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var compressorPool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // only fails for invalid levels
	}
	return &compressor{fw: fw}
}}

// CompressInto deflates chunk, appending the stream to dst (which may be
// nil or a recycled buffer resliced to length 0) and returning the grown
// slice. The deflate state is pooled across calls, so the steady state
// allocates nothing beyond dst growth.
func CompressInto(dst, chunk []byte) []byte {
	c := compressorPool.Get().(*compressor)
	c.sink.b = dst
	c.fw.Reset(&c.sink)
	if _, err := c.fw.Write(chunk); err != nil {
		panic(err) // sliceWriter cannot fail
	}
	if err := c.fw.Close(); err != nil {
		panic(err)
	}
	out := c.sink.b
	c.sink.b = nil // don't pin the caller's buffer in the pool
	compressorPool.Put(c)
	return out
}

// Compress deflates one chunk into a fresh buffer.
func Compress(chunk []byte) []byte {
	return CompressInto(nil, chunk)
}
