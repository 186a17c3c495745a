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
	out := make([]byte, 0, hint)
	for _, rec := range recs {
		if rec.ref != nil {
			out = append(out, rec.ref.raw...)
			continue
		}
		if rec.raw, err = unpack(rec); err != nil {
			return nil, err
		}
		out = append(out, rec.raw...)
	}
	return out, nil
}

// rawRecord is one parsed archive record before decompression.
type rawRecord struct {
	rawLen int             // the referenced chunk's, for a ref
	comp   []byte          // aliases the archive for unique records
	sum    [sha1.Size]byte // unique records only
	ref    *rawRecord      // the unique record a ref repeats; nil for a unique

	// raw and err are filled when the record is inflated.
	raw []byte
	err error
}

// maxTotal bounds an archive's total: the output must fit in one slice,
// and unpack reads one byte past a chunk's recorded length.
const maxTotal = math.MaxInt - 1

var errMalformed = errors.New("dedup: truncated or malformed archive")

// parseRecords decodes an archive into records without inflating them.
// It is the one place that decides what a well-formed archive is: every
// compressed span lies inside the archive, every ref names an earlier
// unique record, and the end record's total is the sum of the records'
// lengths. No recorded length sizes an allocation: hint is the total with
// each record trusted for at most maxChunk bytes, which is the exact total
// of any archive this package's chunker wrote.
func parseRecords(archive []byte) (recs []*rawRecord, hint int, err error) {
	b, ok := bytes.CutPrefix(archive, archiveMagic)
	if !ok {
		return nil, 0, errors.New("dedup: bad archive magic")
	}
	var uniques []*rawRecord
	total := 0
	for len(b) > 0 {
		// Every record is a kind byte and a uvarint: rawLen, index or total.
		kind := b[0]
		v, n := binary.Uvarint(b[1:])
		if n <= 0 {
			break
		}
		b = b[1+n:]
		rec := &rawRecord{}
		switch kind {
		case recUnique:
			compLen, m := binary.Uvarint(b)
			b = b[max(m, 0):]
			if m <= 0 || len(b) < sha1.Size || compLen > uint64(len(b)-sha1.Size) {
				return nil, 0, errMalformed
			}
			rec.comp, b = b[:compLen:compLen], b[compLen:]
			b = b[copy(rec.sum[:], b):]
			uniques = append(uniques, rec)
		case recRef:
			if v >= uint64(len(uniques)) {
				return nil, 0, fmt.Errorf("dedup: dangling chunk reference %d", v)
			}
			rec.ref = uniques[v]
			v = uint64(rec.ref.rawLen)
		case recEnd:
			if v != uint64(total) {
				return nil, 0, fmt.Errorf("dedup: size mismatch: records hold %d bytes, end record says %d", total, v)
			}
			return recs, hint, nil
		default:
			return nil, 0, fmt.Errorf("dedup: unknown record kind 0x%02x", kind)
		}
		if v > uint64(maxTotal-total) {
			return nil, 0, errors.New("dedup: archive holds more bytes than fit in memory")
		}
		rec.rawLen = int(v)
		total += rec.rawLen
		hint += min(rec.rawLen, maxChunk)
		recs = append(recs, rec)
	}
	return nil, 0, errMalformed
}

// inflaterPool recycles flate readers as compressorPool recycles writers:
// flate.NewReader allocates ~40 KiB of state, ten times a typical chunk.
var inflaterPool sync.Pool

// unpack inflates one unique record and checks it against its recorded
// length and SHA-1. The length is trusted only as a capacity hint up to
// maxChunk, and the stream is read at most one byte past it, so a record
// whose stream expands beyond its length costs no more than the record.
func unpack(rec *rawRecord) ([]byte, error) {
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
