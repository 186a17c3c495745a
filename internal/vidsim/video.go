// Package vidsim is a synthetic x264-style video encoder used to
// reproduce the paper's x264 experiment (Figures 2, 3, 8). It implements
// the parts of an H.264-like encoder that give the benchmark its
// scheduling structure: I/P/B frame-type decisions (GOP pattern plus
// scene-cut detection), macroblock intra prediction, motion search
// against the previous reference frame's *reconstruction* (so the
// cross-frame row dependencies are real: violating them corrupts the
// output), and per-frame bit accounting.
//
// The PARSEC native input (512 frames of 1080p video) is replaced by a
// deterministic synthetic sequence of moving rectangles over noise, which
// exercises the same code paths: motion search finds real matches, scene
// cuts force real I-frames, and B-frames buffer between references.
//
// Motion search and reconstruction are most of the encode. The search
// clips its 9×9 grid of 4-pixel steps once per macroblock and makes one
// kernel call over the whole reference window (searchGrid): on amd64,
// SSE2 assembly that holds the source block's first eight rows in
// registers and checks the running sum every four rows (sad_amd64.s);
// on every other GOARCH and under the race detector, SWAR arithmetic on
// 8 pixels per word (searchSWAR over sadSWAR). Both pick the vector and
// SAD of the byte loop that checks after every row, tie rule included
// (motionSearchRef in kernel_test.go). Reconstruction quantizes eight
// pixels a word with no branch and no clamp, leaves the quantized
// residual for the bitstream sink, and then folds each output row into
// the FNV-1a signature. On a 2-vCPU host with Go 1.24.0,
// BenchmarkEncodeSerial (the 320×176, 120-frame video TestEncodeGolden
// pins) read 368–412 ms/op with the byte loops, 138–149 with the SWAR
// SAD kernel and 41–45 with the SSE2 one. With one search call per
// macroblock and the word-parallel reconstruction it read 16–20 ms/op
// in five runs alternating with the per-candidate SSE2 build, which
// read 37–40.
package vidsim

import "piper/internal/workload"

// MB is the macroblock edge in pixels.
const MB = 16

// Video is a sequence of luma frames.
type Video struct {
	W, H   int // pixels; multiples of MB
	Frames [][]byte
}

// Rows reports the number of macroblock rows.
func (v *Video) Rows() int { return v.H / MB }

// Cols reports the number of macroblock columns.
func (v *Video) Cols() int { return v.W / MB }

// rect is one moving object in the synthetic scene.
type rect struct {
	x, y, vx, vy, w, h int
	shade              byte
}

// Generate synthesizes n frames of w×h video: moving rectangles over a
// static dithered background, with an abrupt scene change every sceneLen
// frames (0 disables scene changes). Deterministic in seed.
func Generate(seed uint64, w, h, n, sceneLen int) *Video {
	if w%MB != 0 || h%MB != 0 {
		panic("vidsim: dimensions must be multiples of 16")
	}
	v := &Video{W: w, H: h, Frames: make([][]byte, n)}
	r := workload.NewRNG(seed)
	bg := make([]byte, w*h)
	makeScene := func() []rect {
		rs := make([]rect, 4+r.Intn(4))
		for i := range rs {
			rs[i] = rect{
				x: r.Intn(w), y: r.Intn(h),
				vx: r.Intn(9) - 4, vy: r.Intn(7) - 3,
				w: 8 + r.Intn(w/4), h: 8 + r.Intn(h/4),
				shade: byte(64 + r.Intn(192)),
			}
		}
		return rs
	}
	newBackground := func() {
		base := byte(r.Intn(128))
		for i := range bg {
			bg[i] = base + byte(i%7)*3 + byte(r.Intn(4))
		}
	}
	newBackground()
	rects := makeScene()
	for f := 0; f < n; f++ {
		if sceneLen > 0 && f > 0 && f%sceneLen == 0 {
			newBackground()
			rects = makeScene()
		}
		frame := make([]byte, w*h)
		copy(frame, bg)
		for i := range rects {
			rc := &rects[i]
			rc.x += rc.vx
			rc.y += rc.vy
			if rc.x < -rc.w {
				rc.x = w
			}
			if rc.x > w {
				rc.x = -rc.w
			}
			if rc.y < -rc.h {
				rc.y = h
			}
			if rc.y > h {
				rc.y = -rc.h
			}
			for y := rc.y; y < rc.y+rc.h; y++ {
				if y < 0 || y >= h {
					continue
				}
				for x := rc.x; x < rc.x+rc.w; x++ {
					if x < 0 || x >= w {
						continue
					}
					frame[y*w+x] = rc.shade
				}
			}
		}
		// Sensor noise.
		for p := 0; p < len(frame); p += 97 {
			frame[p] += byte(r.Intn(3))
		}
		v.Frames[f] = frame
	}
	return v
}

// FrameType classifies frames.
type FrameType int8

const (
	TypeI FrameType = iota
	TypeP
	TypeB
)

func (t FrameType) String() string {
	switch t {
	case TypeI:
		return "I"
	case TypeP:
		return "P"
	default:
		return "B"
	}
}

// TypeDecider implements x264's decide_frame_type: a GOP pattern
// (an IDR every gop frames, a B-run of bRun between references) overridden
// by scene-cut detection on the mean absolute difference between
// consecutive source frames.
type TypeDecider struct {
	video     *Video
	gop, bRun int
	cutThresh int
	sinceIDR  int
	sinceRef  int
}

// NewTypeDecider uses gop-frame IDR spacing and runs of bRun B-frames.
func NewTypeDecider(v *Video, gop, bRun, cutThresh int) *TypeDecider {
	if gop < 1 {
		gop = 60
	}
	return &TypeDecider{video: v, gop: gop, bRun: bRun, cutThresh: cutThresh}
}

// Decide classifies frame fi. It must be called for fi = 0, 1, 2, ... in
// order (it keeps GOP state), which the serial stage 0 guarantees.
func (d *TypeDecider) Decide(fi int) FrameType {
	defer func() { d.sinceIDR++ }()
	if fi == 0 || d.sinceIDR >= d.gop {
		d.sinceIDR = 0
		d.sinceRef = 0
		return TypeI
	}
	if d.cutThresh > 0 && d.meanAbsDiff(fi) > d.cutThresh {
		d.sinceIDR = 0
		d.sinceRef = 0
		return TypeI
	}
	if d.sinceRef < d.bRun {
		d.sinceRef++
		return TypeB
	}
	d.sinceRef = 0
	return TypeP
}

// meanAbsDiff samples the mean absolute luma difference with the previous
// frame (subsampled for speed, as real lookahead does).
func (d *TypeDecider) meanAbsDiff(fi int) int {
	a, b := d.video.Frames[fi-1], d.video.Frames[fi]
	var sum, cnt int
	for p := 0; p < len(a); p += 31 {
		diff := int(a[p]) - int(b[p])
		if diff < 0 {
			diff = -diff
		}
		sum += diff
		cnt++
	}
	return sum / cnt
}
