package main

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"io"
	"sync"
	"time"

	"piper"
	"piper/internal/arena"
	"piper/internal/dedup"
	"piper/internal/workload"
)

// dedup-batch: the paper's Figure 4 SSPS dedup. Stages take tens of
// microseconds, two serial stages bound the parallelism, and every unique
// chunk takes one small arena region, so the scheduler is a few percent
// of the work and the grain, throttle and arena policies are what show.
const (
	dedupBytes     = 8 << 20
	dedupBlock     = 4096
	dedupDupRatio  = 0.35 // share of blocks repeated verbatim, fixed across seeds
	dedupRestoreEv = 8    // RestorePiper round trip on every this-many-th run
)

var (
	dedupStages = []string{"dedup.chunk", "dedup.classify", "dedup.compress", "dedup.write"}
	dedupSerial = []bool{true, true, false, true}
)

type dedupBatch struct {
	eng    *piper.Engine
	size   int
	data   []byte
	ref    []byte // CompressSerial's archive
	chunks int
	buf    bytes.Buffer
	nRun   int
	// twinMaxLive is the twin's MaxLiveIterations, the one place the
	// benchmark owns the RunPipeline call of this pipeline shape.
	twinMaxLive int64
}

func dedupInput(seed uint64, size int) []byte {
	return workload.TextStream(seed, size, dedupBlock, dedupDupRatio)
}

func (w *dedupBatch) Setup(seed uint64) error {
	if w.size == 0 {
		w.size = dedupBytes
	}
	w.data = dedupInput(seed, w.size)
	w.chunks = len(dedup.ChunkAll(w.data))
	w.eng = piper.NewEngine(piper.Workers(nproc()))
	w.ref, w.nRun = nil, 0
	w.buf.Grow(w.size)
	for i := 0; i < 2; i++ { // warm-up, including the read side
		w.buf.Reset()
		if err := dedup.CompressPiper(w.eng, 0, w.data, &w.buf); err != nil {
			return err
		}
		if err := w.roundTrip(); err != nil {
			return err
		}
	}
	return nil
}

func (w *dedupBatch) Close()                { w.eng.Close() }
func (w *dedupBatch) Engine() *piper.Engine { return w.eng }
func (w *dedupBatch) Ops() float64          { return float64(w.size) / (1 << 20) }

func (w *dedupBatch) Serial() time.Duration {
	var buf bytes.Buffer
	buf.Grow(w.size)
	t0 := time.Now()
	err := dedup.CompressSerial(w.data, &buf)
	d := time.Since(t0)
	if w.ref == nil && err == nil {
		w.ref = buf.Bytes()
	}
	return d
}

// roundTrip restores the archive in w.buf on the engine and compares it
// with the input: the read-side use of the same layers.
func (w *dedupBatch) roundTrip() error {
	back, err := dedup.RestorePiper(w.eng, 0, w.buf.Bytes())
	if err != nil {
		return fmt.Errorf("RestorePiper: %w", err)
	}
	if !bytes.Equal(back, w.data) {
		return fmt.Errorf("RestorePiper output differs from the input")
	}
	return nil
}

func (w *dedupBatch) check(err error) error {
	if err != nil {
		return err
	}
	if !bytes.Equal(w.buf.Bytes(), w.ref) {
		return fmt.Errorf("archive differs from CompressSerial's (%d vs %d bytes)", w.buf.Len(), len(w.ref))
	}
	w.nRun++
	if w.nRun%dedupRestoreEv == 0 {
		return w.roundTrip()
	}
	return nil
}

func (w *dedupBatch) Run() (time.Duration, error) {
	w.buf.Reset()
	t0 := time.Now()
	err := dedup.CompressPiper(w.eng, 0, w.data, &w.buf)
	d := time.Since(t0)
	return d, w.check(err)
}

func (w *dedupBatch) Traced(tr *tracer, run int) (time.Duration, []*stageTrace, error) {
	st := newStageTrace(w.chunks, dedupStages, dedupSerial)
	w.buf.Reset()
	start := tr.now()
	t0 := time.Now()
	rep, err := dedupTwin(w.eng, false, w.data, &w.buf, st)
	d := time.Since(t0)
	w.twinMaxLive = max(w.twinMaxLive, rep.MaxLiveIterations)
	id := tr.add("dedup.twin", run, -1, start, tr.now())
	st.export(tr, run, id, start+int64(st.base.Sub(t0)))
	return d, []*stageTrace{st}, w.check(err)
}

// twinTask is dedup's per-chunk task, rebuilt here from exported parts.
type twinTask struct {
	rec   dedup.Record
	chunk []byte
	buf   *arena.Ref
}

var twinTaskPool = sync.Pool{New: func() any { return new(twinTask) }}

// dedupTwin is a twin of dedup.CompressPiper assembled from the package's
// exported kernels, so that the benchmark owns the bodies and can stamp
// each stage. It must write the same archive as the library, and its
// untraced time against the library's is reported as trace.twin_ratio.
// With st nil it records nothing; with profile set it runs instrumented
// for work and span.
func dedupTwin(eng *piper.Engine, profile bool, data []byte, out io.Writer, st *stageTrace) (piper.PipelineReport, error) {
	aw := dedup.NewWriter(out)
	table := make(map[[sha1.Size]byte]int64)
	var nextUnique, seq int64
	c := dedup.NewChunker(data)
	a := eng.Arena()
	var chunk []byte
	var chunkStart int64
	cond := func() bool {
		chunkStart = st.now()
		chunk = c.Next()
		return chunk != nil
	}
	body := func(it *piper.Iter) {
		i := it.Index()
		t := twinTaskPool.Get().(*twinTask)
		t.chunk = chunk
		t.rec = dedup.Record{Seq: seq, RawLen: len(chunk)}
		seq++
		defer func() {
			if t.buf != nil {
				t.buf.Release()
				t.buf = nil
			}
			t.chunk = nil
			t.rec = dedup.Record{}
			twinTaskPool.Put(t)
		}()
		st.set(i, 0, chunkStart, st.now())

		it.Wait(1) // serial: deduplicate
		t0 := st.now()
		t.rec.Sum = sha1.Sum(t.chunk)
		if idx, ok := table[t.rec.Sum]; ok {
			t.rec.Dup, t.rec.RefIndex = true, idx
		} else {
			table[t.rec.Sum] = nextUnique
			t.rec.RefIndex = nextUnique
			nextUnique++
		}
		st.set(i, 1, t0, st.now())

		it.Continue(2) // parallel: compress
		t0 = st.now()
		if !t.rec.Dup {
			n := len(t.chunk)
			t.buf = a.Get(n + n>>4 + 64) // dedup's compressBound
			t.buf.B = dedup.CompressInto(t.buf.B, t.chunk)
			t.rec.Compressed = t.buf.B
		}
		st.set(i, 2, t0, st.now())

		it.Wait(3) // serial: write
		t0 = st.now()
		aw.WriteRecord(&t.rec)
		st.set(i, 3, t0, st.now())
	}
	var rep piper.PipelineReport
	if profile {
		rep = eng.ProfilePipeline(0, cond, body)
	} else {
		rep = eng.RunPipeline(0, cond, body)
	}
	return rep, aw.Close()
}

func (w *dedupBatch) Layer(m metrics, res *result) {
	m.set("core.max_live_iters", float64(w.twinMaxLive), 1)
	if k := int64(w.eng.Options().Throttle); w.twinMaxLive > k {
		res.warnf("core.max_live_iters %d exceeds the throttle K=%d", w.twinMaxLive, k)
	}

	// Untraced twin against the library pipeline, interleaved.
	var lib, twin durations
	for i := 0; i < 7; i++ {
		f := hostFactor()
		d, err := w.Run()
		res.Attempted++
		if err != nil {
			res.fail("twin comparison, library run: %v", err)
		}
		lib = append(lib, nominal(d, f))
		w.buf.Reset()
		twin = append(twin, timed(func() { _, err = dedupTwin(w.eng, false, w.data, &w.buf, nil) }))
		res.Attempted++
		if err := w.check(err); err != nil {
			res.fail("twin: %v", err)
		}
	}
	m.set("trace.twin_ratio", twin.medianMs()/lib.medianMs(), len(twin))
	res.notef("trace.twin_ratio base: library pipeline median %.3f ms", lib.medianMs())

	// Work and span of the twin, profiled on one worker: wall-clock node
	// timing is faithful only without contention for the CPUs.
	one := piper.NewEngine(piper.Workers(1))
	defer one.Close()
	profileMetrics(m, res, func() piper.PipelineReport {
		rep, err := dedupTwin(one, true, w.data, io.Discard, nil)
		if err != nil {
			res.warnf("profiling the twin: %v", err)
		}
		return rep
	}, m["run_p50_ms"].Value)
}

func (w *dedupBatch) Inputs(in *kernelInputs) { in.text = w.data }
