package vidsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Bitstream serialization: a real (if simple) coded representation of the
// reference frames, with a decoder that reconstructs them bit-exactly.
// The stream is an optional sink of the one macroblock encoder
// (encodeRow): each macroblock's record is written from the prediction
// its reconstruction uses, so decode(encode(v)) reproduces the encoder's
// reconstruction exactly — the strongest possible oracle for the
// pipeline's dependency handling: any out-of-order row encode changes the
// predictions and breaks the decoder comparison. EncodeStream and
// EncodePiperStream are the serial and the Figure 2 drivers with the sink
// attached; without it they are EncodeSerial and EncodePiper.
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

// streamWriter accumulates the coded stream.
type streamWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// newStreamWriter starts a stream of v coded at cfg with its header.
func newStreamWriter(v *Video, cfg Config) *streamWriter {
	w := &streamWriter{}
	w.buf.Write(streamMagic)
	w.uvarint(uint64(v.W))
	w.uvarint(uint64(v.H))
	w.uvarint(uint64(len(v.Frames)))
	w.uvarint(uint64(cfg.QShift))
	return w
}

func (w *streamWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *streamWriter) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

// frame starts a reference frame's record; its macroblocks follow.
func (w *streamWriter) frame(job *ipJob) {
	w.buf.WriteByte(frameMarker)
	w.uvarint(uint64(job.fi))
	w.buf.WriteByte(byte(job.typ))
}

// end closes the stream and returns its bytes.
func (w *streamWriter) end() []byte {
	w.buf.WriteByte(endMarker)
	return w.buf.Bytes()
}

// codeResidual zero-run-length codes a macroblock's quantized residual, as
// reconstructMB leaves it: each value is a pixel's magnitude shifted
// down by QShift, negated where its sign byte is set. The decoder adds
// it times 2^QShift to its own prediction and so rebuilds the encoder's
// reconstruction.
func (w *streamWriter) codeResidual(res *residual, shift uint) {
	run := 0
	for j, mag := range res.mag {
		for b := 0; b < 64; b += 8 {
			v := int64(mag >> b & 0xff >> shift)
			if v == 0 {
				run++
				continue
			}
			if res.neg[j]>>b&1 != 0 {
				v = -v
			}
			w.uvarint(uint64(run))
			w.varint(v)
			run = 0
		}
	}
	if run > 0 {
		w.uvarint(uint64(run)) // trailing zeros: a run with no value
	}
}

// clampByte clamps the decoder's reconstruction, which a hostile stream
// can push out of [0, 255]; the encoder's never leaves it.
func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Stream is a fully coded video plus the encoder reconstructions for
// verification.
type Stream struct {
	Bytes []byte
	// Recons holds the reference-frame reconstructions in encode order.
	// EncodePiperStream leaves it nil: its reconstructions are arena
	// regions, recycled while the pipeline runs.
	Recons []*Recon
}

// EncodeStream codes all reference frames of the video with the serial
// encoder (B-frames are cost-modelled only, as in the pipelines) and
// returns the stream.
func EncodeStream(v *Video, cfg Config) *Stream {
	sw, st := newStreamWriter(v, cfg), &Stream{}
	encodeSerial(v, cfg, sw, &st.Recons)
	st.Bytes = sw.end()
	return st
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
	return 10 * math.Log10(255*255/mse)
}
