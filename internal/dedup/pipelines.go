package dedup

import (
	"crypto/sha1"
	"io"
	"sync"

	"piper"
	"piper/internal/arena"
	"piper/internal/bindstage"
	"piper/internal/tbbpipe"
)

// task carries one chunk through the pipeline stages.
type task struct {
	rec   Record
	chunk []byte
	// buf is the arena region backing rec.Compressed on the piper
	// pipeline; nil for duplicates and on the non-arena executors.
	buf *arena.Ref
}

// taskPool recycles task headers across iterations; the piper pipeline
// returns each task at the end of its body (after the serial write
// stage, when nothing references it anymore).
var taskPool = sync.Pool{New: func() any { return new(task) }}

// compressBound is a safe output-capacity hint for deflating n bytes:
// deflate's stored-block worst case adds ~5 bytes per 64KiB window plus
// a small header, so n plus a 1/16 margin and a constant always fits.
func compressBound(n int) int { return n + n>>4 + 64 }

// dupTable maps SHA-1 sums to unique-chunk indices. It is only touched
// from the serial deduplicate stage, so it needs no lock under any of the
// executors (serial stages are single-threaded and ordered in all four).
type dupTable struct {
	m    map[[sha1.Size]byte]int64
	next int64
}

func newDupTable() *dupTable {
	return &dupTable{m: make(map[[sha1.Size]byte]int64)}
}

// classify assigns t its dedup verdict: either a reference to an earlier
// unique chunk or a fresh unique index.
func (d *dupTable) classify(t *task) {
	t.rec.Sum = sha1.Sum(t.chunk)
	if idx, ok := d.m[t.rec.Sum]; ok {
		t.rec.Dup = true
		t.rec.RefIndex = idx
		return
	}
	d.m[t.rec.Sum] = d.next
	t.rec.RefIndex = d.next
	d.next++
}

// CompressSerial is the reference single-threaded implementation (TS in
// the paper's tables): the stages of the non-arena executors below, run
// in order on one goroutine.
func CompressSerial(data []byte, out io.Writer) error {
	aw := NewWriter(out)
	table := newDupTable()
	next := taskSource(data)
	for v, ok := next(); ok; v, ok = next() {
		aw.sink(compressStage(table.stage(v)))
	}
	return aw.Close()
}

// CompressPiper runs the SSPS pipe_while of Figure 4 on a PIPER engine:
// stage 0 reads and chunks, stage 1 (serial, pipe_wait) deduplicates,
// stage 2 (parallel, pipe_continue) compresses, stage 3 (serial,
// pipe_wait) writes the archive.
//
// The data plane is arena-backed: chunks alias the input, each unique
// chunk's deflate stream lands in a region checked out of the engine's
// arena in the parallel stage, and the region releases after the serial
// write stage copied it out — via defer, so cancellation or a panic
// unwinding the body cannot leak it. Steady state allocates nothing per
// chunk.
func CompressPiper(eng *piper.Engine, k int, data []byte, out io.Writer) error {
	aw := NewWriter(out)
	compressPipe(eng.Arena(), data, aw, func(next func() ([]byte, bool), body func(*piper.Iter, []byte)) {
		piper.PipeThrottled(eng, k, next, body)
	})
	return aw.Close()
}

// ProfilePiper measures the work and span of CompressPiper's pipeline —
// the paper's Cilkview measurement of dedup — from its serial elision on
// the calling goroutine (piper.ProfilePipe), writing the same archive to
// out.
func ProfilePiper(eng *piper.Engine, data []byte, out io.Writer) (piper.PipelineReport, error) {
	aw := NewWriter(out)
	var rep piper.PipelineReport
	compressPipe(eng.Arena(), data, aw, func(next func() ([]byte, bool), body func(*piper.Iter, []byte)) {
		rep = piper.ProfilePipe(eng, 0, next, body)
	})
	return rep, aw.Close()
}

// compressPipe hands pipe the element source and the body of the Figure
// 4 pipeline, which write data's archive to aw with regions from a. pipe
// runs them (PipeThrottled or ProfilePipe); passing the pair to a call
// rather than returning it keeps the body visible to piperlint, which
// finds pipeline code at the call that receives it.
func compressPipe(a *arena.Arena, data []byte, aw *Writer, pipe func(next func() ([]byte, bool), body func(*piper.Iter, []byte))) {
	table := newDupTable()
	c := NewChunker(data)
	var seq int64
	next := func() ([]byte, bool) {
		chunk := c.Next()
		return chunk, chunk != nil
	}
	body := func(it *piper.Iter, chunk []byte) {
		t := taskPool.Get().(*task)
		t.chunk = chunk
		t.rec = Record{Seq: seq, RawLen: len(chunk)}
		seq++
		defer func() {
			if t.buf != nil {
				t.buf.Release()
				t.buf = nil
			}
			t.chunk = nil
			t.rec = Record{}
			taskPool.Put(t)
		}()

		it.Wait(1) // serial: deduplicate
		table.classify(t)

		it.Continue(2) // parallel: compress
		if !t.rec.Dup {
			t.buf = a.Get(compressBound(len(t.chunk)))
			t.buf.B = CompressInto(t.buf.B, t.chunk)
			t.rec.Compressed = t.buf.B
		}

		it.Wait(3) // serial: write
		aw.WriteRecord(&t.rec)
	}
	pipe(next, body)
}

// The serial, bind-to-stage and TBB executors pass each chunk's *task
// through the stages below as an any: taskSource reads and chunks,
// dupTable.stage deduplicates (serial), compressStage deflates
// (parallel), and Writer.sink writes the record (serial, in order).

// taskSource returns stage 0: it cuts data into chunks and numbers a
// task for each.
func taskSource(data []byte) func() (any, bool) {
	c := NewChunker(data)
	var seq int64
	return func() (any, bool) {
		chunk := c.Next()
		if chunk == nil {
			return nil, false
		}
		t := &task{chunk: chunk, rec: Record{Seq: seq, RawLen: len(chunk)}}
		seq++
		return t, true
	}
}

func (d *dupTable) stage(v any) any {
	d.classify(v.(*task))
	return v
}

func compressStage(v any) any {
	if t := v.(*task); !t.rec.Dup {
		t.rec.Compressed = Compress(t.chunk)
	}
	return v
}

func (w *Writer) sink(v any) { w.WriteRecord(&v.(*task).rec) }

// CompressBindStage is the Pthreads-style bind-to-stage implementation:
// one thread each for the serial stages, q threads for compression, with
// bounded queues of capacity queueCap.
func CompressBindStage(data []byte, q, queueCap int, out io.Writer) error {
	aw := NewWriter(out)
	bindstage.New(queueCap).
		AddSerial(newDupTable().stage).
		AddParallel(q, compressStage).
		AddSerial(func(v any) any { return v }). // write happens in sink
		Run(taskSource(data), aw.sink)
	return aw.Close()
}

// CompressTBB is the construct-and-run token-pipeline implementation.
func CompressTBB(data []byte, workers, tokens int, out io.Writer) error {
	aw := NewWriter(out)
	tbbpipe.New().
		Add(tbbpipe.SerialInOrder, newDupTable().stage).
		Add(tbbpipe.ParallelMode, compressStage).
		Run(workers, tokens, taskSource(data), aw.sink)
	return aw.Close()
}
