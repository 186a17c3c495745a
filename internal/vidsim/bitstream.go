package vidsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Bitstream serialization: a real (if simple) coded representation of the
// reference frames, with a decoder that reconstructs them bit-exactly.
// The stream codes, per reference frame, each macroblock's prediction
// mode, motion vector, and quantized residual (zero-run-length coded), so
// decode(encode(v)) reproduces the encoder's reconstruction exactly —
// the strongest possible oracle for the pipeline's dependency handling:
// any out-of-order row encode changes the predictions and breaks the
// decoder comparison.
//
// Stream layout:
//
//	magic "PVS1"
//	uvarint width, height, frame count, QShift
//	per reference frame (in encode order):
//	  0xFE, uvarint frameIndex, byte type (I/P)
//	  per macroblock (row major):
//	    byte mode (0 intra, 1 inter)
//	    inter: zigzag-varint mvdx, mvdy
//	    residual: repeated (uvarint zeroRun, zigzag-varint value);
//	    a zeroRun covering the rest of the block ends it implicitly
//	0xFF end marker
var streamMagic = []byte("PVS1")

const (
	mbModeIntra = 0
	mbModeInter = 1
	frameMarker = 0xFE
	endMarker   = 0xFF
)

// mbRecord is the coded form of one macroblock.
type mbRecord struct {
	inter      bool
	mvdx, mvdy int
	// qres holds the quantized residual values (res >> QShift), row
	// major, MB×MB entries.
	qres [MB * MB]int16
}

// streamWriter accumulates the coded stream.
type streamWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *streamWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *streamWriter) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *streamWriter) mb(rec *mbRecord) {
	if rec.inter {
		w.buf.WriteByte(mbModeInter)
		w.varint(int64(rec.mvdx))
		w.varint(int64(rec.mvdy))
	} else {
		w.buf.WriteByte(mbModeIntra)
	}
	// Zero-run-length code the residuals.
	i := 0
	for i < len(rec.qres) {
		run := 0
		for i+run < len(rec.qres) && rec.qres[i+run] == 0 {
			run++
		}
		if i+run == len(rec.qres) {
			w.uvarint(uint64(run)) // trailing zeros: run with no value
			break
		}
		w.uvarint(uint64(run))
		w.varint(int64(rec.qres[i+run]))
		i += run + 1
	}
}

// encodeMBRecord computes the coded record for one macroblock and applies
// its reconstruction, sharing dcPredict/motionSearch with the estimating
// path so the two can never choose different predictions.
func (e *Encoder) encodeMBRecord(fi, r, c int, rc *Recon, ref *Recon) mbRecord {
	v := e.Video
	src := v.Frames[fi]
	x0, y0 := c*MB, r*MB
	var rec mbRecord
	if ref != nil {
		bdx, bdy, bestSAD := e.motionSearch(src, ref.Pix, x0, y0, r)
		if bestSAD <= 24*MB*MB {
			rec.inter = true
			rec.mvdx, rec.mvdy = bdx, bdy
		}
	}
	// Prediction row k starts at pred[k*stride], as in reconstructMB.
	var pred []byte
	stride := v.W
	if rec.inter {
		pred = ref.Pix[(y0+rec.mvdy)*v.W+x0+rec.mvdx:]
	} else {
		dc := dcRow(dcPredict(rc.Pix, v.W, x0, y0))
		pred, stride = dc[:], 0
	}
	q := e.Cfg.QShift
	k := 0
	for y := 0; y < MB; y++ {
		row := (y0+y)*v.W + x0
		for x := 0; x < MB; x++ {
			p := int(pred[y*stride+x])
			res := int(src[row+x]) - p
			qv := res / (1 << q) // toward zero, matching reconstructMB
			rec.qres[k] = int16(qv)
			k++
			rc.Pix[row+x] = clampByte(p + qv*(1<<q))
		}
	}
	return rec
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// EncodeRowStream codes macroblock row r into w and applies the
// reconstruction, the stream-producing twin of EncodeRow.
func (e *Encoder) EncodeRowStream(fi int, typ FrameType, r int, rc *Recon, ref *Recon, w *streamWriter) {
	useRef := ref
	if typ == TypeI {
		useRef = nil
	}
	if useRef != nil {
		rows := e.Video.Rows()
		need := r + e.Cfg.W
		if need > rows-1 {
			need = rows - 1
		}
		if useRef.RowsDone() < need+1 {
			e.violations.Add(1)
		}
	}
	for c := 0; c < e.Video.Cols(); c++ {
		rec := e.encodeMBRecord(fi, r, c, rc, useRef)
		w.mb(&rec)
	}
	rc.rowsDone.Store(int32(r + 1))
}

// Stream is a fully coded video plus the encoder reconstructions for
// verification.
type Stream struct {
	Bytes  []byte
	Recons []*Recon // reference-frame reconstructions, in encode order
}

// EncodeStream codes all reference frames of the video serially (B-frames
// are cost-modelled only, as in the pipelines) and returns the stream.
func EncodeStream(v *Video, cfg Config) *Stream {
	e := NewEncoder(v, cfg)
	d := NewTypeDecider(v, cfg.Gop, cfg.BRun, cfg.CutThresh)
	w := &streamWriter{}
	w.buf.Write(streamMagic)
	w.uvarint(uint64(v.W))
	w.uvarint(uint64(v.H))
	w.uvarint(uint64(len(v.Frames)))
	w.uvarint(uint64(e.Cfg.QShift))

	var prevRef *Recon
	var recons []*Recon
	cursor := 0
	for {
		job, ok := gather(d, len(v.Frames), &cursor)
		if !ok {
			break
		}
		job.prev = prevRef
		job.rc = e.NewRecon(job.fi)
		prevRef = job.rc
		w.buf.WriteByte(frameMarker)
		w.uvarint(uint64(job.fi))
		w.buf.WriteByte(byte(job.typ))
		for r := 0; r < v.Rows(); r++ {
			e.EncodeRowStream(job.fi, job.typ, r, job.rc, job.prev, w)
		}
		recons = append(recons, job.rc)
	}
	w.buf.WriteByte(endMarker)
	return &Stream{Bytes: w.buf.Bytes(), Recons: recons}
}

// DecodedFrame is one reconstructed reference frame.
type DecodedFrame struct {
	Frame int
	Type  FrameType
	Pix   []byte
}

// Decode reconstructs the reference frames from a coded stream. The
// decoder maintains its own reconstruction state and must agree with the
// encoder's recon buffers bit for bit.
func Decode(stream []byte) (w, h int, frames []DecodedFrame, err error) {
	if !bytes.HasPrefix(stream, streamMagic) {
		return 0, 0, nil, errors.New("vidsim: bad stream magic")
	}
	r := bytes.NewReader(stream[len(streamMagic):])
	uv := func() uint64 {
		v, e2 := binary.ReadUvarint(r)
		if e2 != nil && err == nil {
			err = e2
		}
		return v
	}
	sv := func() int64 {
		v, e2 := binary.ReadVarint(r)
		if e2 != nil && err == nil {
			err = e2
		}
		return v
	}
	w = int(uv())
	h = int(uv())
	_ = uv() // frame count (informational)
	q := uint(uv())
	if err != nil {
		return 0, 0, nil, err
	}
	if w <= 0 || h <= 0 || w%MB != 0 || h%MB != 0 || w > 1<<14 || h > 1<<14 {
		return 0, 0, nil, fmt.Errorf("vidsim: implausible dimensions %dx%d", w, h)
	}
	var prev []byte
	for {
		marker, e2 := r.ReadByte()
		if e2 != nil {
			return 0, 0, nil, errors.New("vidsim: truncated stream")
		}
		if marker == endMarker {
			return w, h, frames, nil
		}
		if marker != frameMarker {
			return 0, 0, nil, fmt.Errorf("vidsim: bad frame marker 0x%02x", marker)
		}
		fi := int(uv())
		tb, e2 := r.ReadByte()
		if e2 != nil {
			return 0, 0, nil, e2
		}
		typ := FrameType(tb)
		pix := make([]byte, w*h)
		for mb := 0; mb < (w/MB)*(h/MB); mb++ {
			x0 := (mb % (w / MB)) * MB
			y0 := (mb / (w / MB)) * MB
			mode, e2 := r.ReadByte()
			if e2 != nil {
				return 0, 0, nil, e2
			}
			var pred []byte // row k of the prediction starts at pred[k*stride]
			stride := w
			switch mode {
			case mbModeInter:
				mvdx, mvdy := int(sv()), int(sv())
				if prev == nil {
					return 0, 0, nil, errors.New("vidsim: inter block without reference")
				}
				mx, my := x0+mvdx, y0+mvdy
				if mx < 0 || my < 0 || mx+MB > w || my+MB > h {
					return 0, 0, nil, fmt.Errorf("vidsim: motion vector (%d,%d) out of frame", mvdx, mvdy)
				}
				pred = prev[my*w+mx:]
			case mbModeIntra:
				dc := dcRow(dcPredict(pix, w, x0, y0))
				pred, stride = dc[:], 0
			default:
				return 0, 0, nil, fmt.Errorf("vidsim: bad MB mode 0x%02x", mode)
			}
			// Decode the residual run-length stream into the block.
			var qres [MB * MB]int16
			i := 0
			for i < len(qres) {
				run := int(uv())
				if err != nil {
					return 0, 0, nil, err
				}
				if run > len(qres)-i {
					return 0, 0, nil, errors.New("vidsim: residual run overflows block")
				}
				i += run
				if i == len(qres) {
					break
				}
				qres[i] = int16(sv())
				i++
			}
			if err != nil {
				return 0, 0, nil, err
			}
			k := 0
			for y := 0; y < MB; y++ {
				for x := 0; x < MB; x++ {
					pix[(y0+y)*w+x0+x] = clampByte(int(pred[y*stride+x]) + int(qres[k])*(1<<q))
					k++
				}
			}
		}
		frames = append(frames, DecodedFrame{Frame: fi, Type: typ, Pix: pix})
		prev = pix
	}
}

// PSNR computes the peak signal-to-noise ratio in dB between two frames.
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var mse float64
	for i := range a {
		d := float64(int(a[i]) - int(b[i]))
		mse += d * d
	}
	mse /= float64(len(a))
	if mse == 0 {
		return 99
	}
	// 10*log10(255^2/mse) without importing math: log10 via a small
	// series is overkill — use the change-of-base with natural log
	// approximated by repeated square root (Briggs). Precision to 0.01dB
	// is ample for tests.
	return 10 * log10(255*255/mse)
}

// log10 is Briggs' method: log10(x) = log2(x)/log2(10) with log2 via
// repeated squaring/halving. Stdlib math would be fine; this keeps the
// kernel self-contained and deterministic across platforms.
func log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Normalize x into [1, 10).
	n := 0
	for x >= 10 {
		x /= 10
		n++
	}
	for x < 1 {
		x *= 10
		n--
	}
	// Binary digits of log10(x) for x in [1,10).
	frac := 0.0
	add := 0.5
	for i := 0; i < 40; i++ {
		x *= x
		if x >= 10 {
			frac += add
			x /= 10
		}
		add /= 2
	}
	return float64(n) + frac
}
