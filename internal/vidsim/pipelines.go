package vidsim

import (
	"sync"

	"piper"
)

// Stage constants from Figure 2 of the paper.
const (
	processIPFrame = int64(1)
	processBFrames = int64(1) << 40
	endStage       = processBFrames + 1
)

// FrameStat is the per-frame encoding outcome.
type FrameStat struct {
	Frame int
	Type  FrameType
	Bits  int64
	Sig   uint64
}

// Result is a complete encode.
type Result struct {
	Stats      []FrameStat // indexed by frame number
	Order      []int       // reference frames in bitstream write order
	TotalBits  int64
	Checksum   uint64 // combined over frames in display order
	Violations int64  // audited dependency violations (0 under correct scheduling)
}

func finalize(e *Encoder, stats []FrameStat, order []int) *Result {
	res := &Result{Stats: stats, Order: order, Violations: e.Violations()}
	var sum uint64 = 14695981039346656037
	for _, st := range stats {
		res.TotalBits += st.Bits
		sum = (sum ^ st.Sig ^ uint64(st.Type)) * 1099511628211
	}
	res.Checksum = sum
	return res
}

// ipJob is one pipe_while iteration: a reference (I or P) frame plus the
// B-frames buffered before it.
type ipJob struct {
	fi      int
	typ     FrameType
	bframes []int
	rc      *Recon
	prev    *Recon // reference reconstruction of the previous job
}

// gather implements the stage-0 input loop of Figure 2 (lines 9–15):
// buffer B-frames until the next reference frame. A stream ending in
// B-frames promotes the last one to P so every job has a reference.
func gather(d *TypeDecider, nFrames int, cursor *int) (*ipJob, bool) {
	if *cursor >= nFrames {
		return nil, false
	}
	job := &ipJob{}
	fi := *cursor
	*cursor++
	typ := d.Decide(fi)
	for typ == TypeB && *cursor < nFrames {
		job.bframes = append(job.bframes, fi)
		fi = *cursor
		*cursor++
		typ = d.Decide(fi)
	}
	if typ == TypeB {
		typ = TypeP // trailing B becomes the reference
	}
	job.fi, job.typ = fi, typ
	return job, true
}

// bRefs selects the B-frame references for a job: forward prediction from
// the previous reference, backward from the current one. After an IDR
// (TypeI) the forward reference is dropped — IDR semantics forbid
// crossing it, which also makes the parallel schedule race-free (an
// I-frame job never waited on its predecessor's rows).
func (j *ipJob) bRefs() (fwd, bwd *Recon) {
	if j.typ == TypeI {
		return nil, j.rc
	}
	return j.prev, j.rc
}

// EncodeSerial is the single-threaded reference encoder (TS).
func EncodeSerial(v *Video, cfg Config) *Result { return encodeSerial(v, cfg, nil, nil) }

// encodeSerial is EncodeSerial, coding the reference frames into sw and
// appending their reconstructions to recons when sw is non-nil.
func encodeSerial(v *Video, cfg Config, sw *streamWriter, recons *[]*Recon) *Result {
	e := NewEncoder(v, cfg)
	d := NewTypeDecider(v, cfg.Gop, cfg.BRun, cfg.CutThresh)
	stats := make([]FrameStat, len(v.Frames))
	var order []int
	var prevRef *Recon
	cursor := 0
	for {
		job, ok := gather(d, len(v.Frames), &cursor)
		if !ok {
			break
		}
		job.prev = prevRef
		job.rc = e.NewRecon(job.fi)
		prevRef = job.rc
		if sw != nil {
			sw.frame(job)
			*recons = append(*recons, job.rc)
		}
		encodeJob(e, job, stats, sw)
		order = append(order, job.fi)
	}
	return finalize(e, stats, order)
}

// encodeJob runs the row loop, coding the rows into sw when it is
// non-nil, and the B-frame batch for one job.
func encodeJob(e *Encoder, job *ipJob, stats []FrameStat, sw *streamWriter) {
	rows := e.Video.Rows()
	var bits int64
	var sig uint64 = 99194853094755497
	for r := 0; r < rows; r++ {
		b, s := e.encodeRow(job.fi, job.typ, r, job.rc, refFor(job), sw)
		bits += b
		sig = (sig ^ s) * 1099511628211
	}
	stats[job.fi] = FrameStat{Frame: job.fi, Type: job.typ, Bits: bits, Sig: sig}
	fwd, bwd := job.bRefs()
	for _, bi := range job.bframes {
		bb, bs := e.EncodeB(bi, fwd, bwd)
		stats[bi] = FrameStat{Frame: bi, Type: TypeB, Bits: bb, Sig: bs}
	}
}

func refFor(job *ipJob) *Recon {
	if job.typ == TypeP {
		return job.prev
	}
	return nil
}

// EncodePiper runs the on-the-fly hybrid pipeline of Figure 2 on a PIPER
// engine: a serial stage 0 that reads frames and decides types, w·i
// skipped stages implementing the motion-range offset dependency, one
// stage per macroblock row with a data-dependent pipe_wait (P) or
// pipe_continue (I), a parallel B-frame stage (cilk_for), and a serial
// write stage.
// Reconstruction buffers live on the engine's arena and flow by ownership
// hand-off: stage 0 of each job takes out two references on its fresh
// reconstruction — one for the job's own row loop and B-batch, one that
// rides the prevRef chain slot and transfers to the successor job as its
// motion-search reference. Each body releases its own pair by defer, so a
// cancellation or panic unwinding the body cannot leak pixels; the final
// chain reference is released when the pipeline returns.
func EncodePiper(eng *piper.Engine, k int, v *Video, cfg Config) *Result {
	return encodePiper(eng, k, v, cfg, nil)
}

// EncodePiperStream produces the coded bitstream with the pipeline of
// EncodePiper, byte-identical to EncodeStream for any worker count. It
// returns Bytes only: the reconstructions are arena regions, recycled
// while the pipeline runs.
func EncodePiperStream(eng *piper.Engine, k int, v *Video, cfg Config) *Stream {
	sw := newStreamWriter(v, cfg)
	encodePiper(eng, k, v, cfg, sw)
	return &Stream{Bytes: sw.end()}
}

// encodePiper is EncodePiper, coding the reference frames into sw when
// it is non-nil. A frame's rows run in order inside its iteration, so
// each frame codes into a buffer of its own from the parallel row stages
// and the serial END stage splices the buffers into sw in frame order.
func encodePiper(eng *piper.Engine, k int, v *Video, cfg Config, sw *streamWriter) *Result {
	e := NewEncoder(v, cfg)
	e.A = eng.Arena()
	cfg = e.Cfg
	d := NewTypeDecider(v, cfg.Gop, cfg.BRun, cfg.CutThresh)
	stats := make([]FrameStat, len(v.Frames))
	var order []int
	var prevRef *Recon
	cursor, iterIdx := 0, 0
	rows := v.Rows()
	defer func() { prevRef.release() }() // last job's chain reference

	piper.PipeThrottled(eng, k, func() (*ipJob, bool) {
		return gather(d, len(v.Frames), &cursor)
	}, func(it *piper.Iter, job *ipJob) {
		// Still stage 0 (serial): allocate the reconstruction and link the
		// reference chain. The chain slot's reference is taken here, while
		// the slot is exclusively ours; the predecessor's chain reference
		// transfers to this job and is released when the body finishes.
		job.prev = prevRef
		job.rc = e.NewRecon(job.fi)
		job.rc.retain() // the chain slot's reference
		prevRef = job.rc
		defer job.rc.release()
		defer job.prev.release()
		skip := int64(cfg.W * iterIdx)
		iterIdx++
		var fw *streamWriter
		if sw != nil {
			fw = &streamWriter{}
			fw.frame(job)
		}

		base := processIPFrame + skip
		it.Wait(base) //piper:allow-dynamic-stage line 17: offset dependency into the row stages (base grows by W per iteration)

		var bits int64
		var sig uint64 = 99194853094755497
		for r := 0; r < rows; r++ {
			b, s := e.encodeRow(job.fi, job.typ, r, job.rc, refFor(job), fw)
			bits += b
			sig = (sig ^ s) * 1099511628211
			// Lines 20–24: conditional dependency on the previous
			// reference frame's rows.
			if job.typ == TypeI {
				//piper:allow-dynamic-stage lines 20-24: I-frame rows have no reference dependency
				it.Continue(base + int64(r) + 1)
			} else {
				//piper:allow-dynamic-stage lines 20-24: P-frame row r waits on the reference frame's row r
				it.Wait(base + int64(r) + 1)
			}
		}
		stats[job.fi] = FrameStat{Frame: job.fi, Type: job.typ, Bits: bits, Sig: sig}

		it.Continue(processBFrames) // line 26: skip over later rows
		fwd, bwd := job.bRefs()
		bfs := job.bframes
		it.For(len(bfs), 1, func(jx int) {
			bb, bs := e.EncodeB(bfs[jx], fwd, bwd)
			stats[bfs[jx]] = FrameStat{Frame: bfs[jx], Type: TypeB, Bits: bb, Sig: bs}
		})

		it.Wait(endStage) // line 30: serial, in-order output
		order = append(order, job.fi)
		if fw != nil {
			sw.buf.Write(fw.buf.Bytes())
		}
	})
	return finalize(e, stats, order)
}

// EncodeThreads is the PARSEC-style Pthreaded baseline: frame-level
// threads (bounded in flight), each waiting on the previous reference
// frame's row counter through a condition variable, with in-order output.
func EncodeThreads(v *Video, cfg Config, threads int) *Result {
	e := NewEncoder(v, cfg)
	cfg = e.Cfg
	d := NewTypeDecider(v, cfg.Gop, cfg.BRun, cfg.CutThresh)
	stats := make([]FrameStat, len(v.Frames))

	// Construct-and-run: the job list is built up front, serially (this
	// is exactly the a-priori structure an on-the-fly pipeline avoids).
	var jobs []*ipJob
	cursor := 0
	for {
		job, ok := gather(d, len(v.Frames), &cursor)
		if !ok {
			break
		}
		jobs = append(jobs, job)
	}
	var prevRef *Recon
	syncs := make([]*rowSync, len(jobs))
	for i, job := range jobs {
		job.prev = prevRef
		job.rc = e.NewRecon(job.fi)
		prevRef = job.rc
		syncs[i] = newRowSync(job.rc)
	}

	sem := make(chan struct{}, threads)
	order := make([]int, len(jobs))
	var wg sync.WaitGroup
	rows := v.Rows()
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			job := jobs[i]
			var refSync *rowSync
			if i > 0 {
				refSync = syncs[i-1]
			}
			var bits int64
			var sig uint64 = 99194853094755497
			for r := 0; r < rows; r++ {
				if job.typ == TypeP && refSync != nil {
					need := r + cfg.W
					if need > rows-1 {
						need = rows - 1
					}
					refSync.waitRows(need + 1)
				}
				b, s := e.EncodeRow(job.fi, job.typ, r, job.rc, refFor(job))
				bits += b
				sig = (sig ^ s) * 1099511628211
				syncs[i].rowDone()
			}
			stats[job.fi] = FrameStat{Frame: job.fi, Type: job.typ, Bits: bits, Sig: sig}
			fwd, bwd := job.bRefs()
			if fwd != nil && refSync != nil {
				refSync.waitRows(rows)
			}
			for _, bi := range job.bframes {
				bb, bs := e.EncodeB(bi, fwd, bwd)
				stats[bi] = FrameStat{Frame: bi, Type: TypeB, Bits: bb, Sig: bs}
			}
			order[i] = job.fi
		}(i)
	}
	wg.Wait()
	return finalize(e, stats, order)
}

// rowSync publishes row completion to waiting frame threads.
type rowSync struct {
	rc *Recon
	mu sync.Mutex
	cv *sync.Cond
}

func newRowSync(rc *Recon) *rowSync {
	rs := &rowSync{rc: rc}
	rs.cv = sync.NewCond(&rs.mu)
	return rs
}

func (rs *rowSync) rowDone() {
	rs.mu.Lock()
	rs.cv.Broadcast()
	rs.mu.Unlock()
}

func (rs *rowSync) waitRows(n int) {
	rs.mu.Lock()
	for rs.rc.RowsDone() < n {
		rs.cv.Wait()
	}
	rs.mu.Unlock()
}
