package vidsim

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"piper/internal/workload"
)

// Differential and golden tests for the encoder's per-pixel kernels, and
// their benchmarks.

// sadRef is the byte-at-a-time SAD: the definition sad and every kernel
// in sadKernels must reproduce bit for bit, partial sums on an early exit
// included.
func sadRef(w int, src, ref []byte, x0, y0, x, y int, limit int64) int64 {
	var s int64
	for r := 0; r < MB; r++ {
		a := src[(y0+r)*w+x0 : (y0+r)*w+x0+MB]
		b := ref[(y+r)*w+x : (y+r)*w+x+MB]
		for i := 0; i < MB; i++ {
			d := int64(a[i]) - int64(b[i])
			if d < 0 {
				d = -d
			}
			s += d
		}
		if s >= limit {
			return s
		}
	}
	return s
}

// sadKernels are the kernels the tests check against sadRef: the
// portable sadSWAR, and this build's sadKernel, which is the SSE2 sadRows
// on amd64 without -race and sadSWAR again everywhere else.
var sadKernels = []struct {
	name string
	fn   func(a, b []byte, stride int, limit int64) int64
}{{"swar", sadSWAR}, {"build", sadKernel}}

// splat puts byte p in the even lanes of a word and q in the odd ones.
func splat(p, q byte) uint64 {
	return uint64(p)*0x0001000100010001 + uint64(q)*0x0100010001000100
}

// checkSAD checks sad and every kernel in sadKernels against
// sadRef on one window of a frame pair w pixels wide.
func checkSAD(t *testing.T, e *Encoder, src, ref []byte, x0, y0, x, y int, limit int64) {
	t.Helper()
	w := e.Video.W
	want := sadRef(w, src, ref, x0, y0, x, y, limit)
	if got := e.sad(src, ref, x0, y0, x, y, limit); got != want {
		t.Fatalf("(%d,%d)-(%d,%d) limit %d: sad = %d, sadRef = %d", x0, y0, x, y, limit, got, want)
	}
	a, b := mbSpan(src, w, x0, y0), mbSpan(ref, w, x, y)
	for _, k := range sadKernels {
		if got := k.fn(a, b, w, limit); got != want {
			t.Fatalf("(%d,%d)-(%d,%d) limit %d: %s kernel = %d, sadRef = %d", x0, y0, x, y, limit, k.name, got, want)
		}
	}
}

// TestSADMatchesReference: absDiff8 is exact on every byte pair, with
// the pair's mirror image in the neighbouring lanes so that a borrow
// across a lane boundary would show; sad and every kernel then match
// sadRef on random windows, some touching the frame's last row and
// column, at limits 0, 1, random and 1<<62.
func TestSADMatchesReference(t *testing.T) {
	for p := 0; p < 256; p++ {
		for q := 0; q < 256; q++ {
			want := byte(max(p-q, q-p))
			for _, ab := range [][2]uint64{
				{splat(byte(p), byte(p)), splat(byte(q), byte(q))},
				{splat(byte(p), byte(q)), splat(byte(q), byte(p))},
			} {
				if got := absDiff8(ab[0], ab[1]); got != uint64(want)*0x0101010101010101 {
					t.Fatalf("absDiff8(%#x, %#x) = %#x, want %#x in every lane", ab[0], ab[1], got, want)
				}
			}
		}
	}

	const w, h = 64, 48
	rng := workload.NewRNG(35)
	e := NewEncoder(&Video{W: w, H: h}, DefaultConfig())
	src, ref := make([]byte, w*h), make([]byte, w*h)
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0: // uniform noise
			rng.Bytes(src)
			rng.Bytes(ref)
		case 1: // ref a small perturbation of src: small sums, late exits
			rng.Bytes(src)
			for j := range ref {
				ref[j] = src[j] + byte(rng.Intn(5)) - 2
			}
		case 2: // the extremes 0 and 255 only
			for j := range src {
				src[j], ref[j] = byte(-(rng.Intn(2))), byte(-(rng.Intn(2)))
			}
		case 3: // new windows on the same frames
		}
		x0, y0 := rng.Intn(w-MB+1), rng.Intn(h-MB+1)
		x, y := rng.Intn(w-MB+1), rng.Intn(h-MB+1)
		switch i % 3 {
		case 1: // the ref block ends on the frame's last byte
			x, y = w-MB, h-MB
		case 2: // the src block does
			x0, y0 = w-MB, h-MB
		}
		for _, limit := range []int64{0, 1, int64(rng.Intn(MB * MB * 256)), 1 << 62} {
			checkSAD(t, e, src, ref, x0, y0, x, y, limit)
		}
	}
}

// TestSADShortFrame: a frame one byte too short for a block's last row
// makes sad panic with a bounds error from its own slicing, before any
// kernel runs, also when the frame's capacity covers the missing byte;
// the assembly kernel has no bounds checks to catch it.
func TestSADShortFrame(t *testing.T) {
	const w, h = 48, 32
	e := NewEncoder(&Video{W: w, H: h}, DefaultConfig())
	full, short := make([]byte, w*h), make([]byte, w*h-1)
	for _, c := range []struct {
		name     string
		src, ref []byte
	}{{"src", short, full}, {"ref", full, short}, {"ref resliced", full, full[:w*h-1]}} {
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				stack := string(debug.Stack()) // the panicking frames are still on it
				if !ok || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s one byte short: recovered %v, want a bounds error", c.name, err)
				} else if !strings.Contains(stack, "vidsim.mbSpan(") || strings.Contains(stack, "vidsim.sadKernel(") {
					t.Errorf("%s one byte short: panic not raised by sad's slicing:\n%s", c.name, stack)
				}
			}()
			e.sad(c.src, c.ref, w-MB, h-MB, w-MB, h-MB, 1<<62)
		}()
	}
}

// FuzzSAD checks sad and every kernel against sadRef on a 32×32 frame
// pair built from the fuzzer's bytes, at 17 pairs of block positions
// spread over it, which include the last row and column.
func FuzzSAD(f *testing.F) {
	f.Add([]byte{0, 255}, []byte{255, 0}, int64(1<<62))
	f.Add([]byte{128}, []byte{127, 129}, int64(0))
	f.Add([]byte("on-the-fly pipeline parallelism"), []byte("pipe_while"), int64(4096))
	f.Fuzz(func(t *testing.T, a, b []byte, limit int64) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		const w = 2 * MB
		src, ref := make([]byte, w*w), make([]byte, w*w)
		for i := range src {
			src[i], ref[i] = a[i%len(a)]+byte(i/len(a)), b[i%len(b)]^byte(i/len(b))
		}
		e := NewEncoder(&Video{W: w, H: w}, DefaultConfig())
		for off := 0; off <= MB; off++ {
			checkSAD(t, e, src, ref, off, MB-off, (off*7)%(MB+1), (off*11)%(MB+1), limit)
		}
	})
}

// motionSearchRef is the motion search the encoder's kernels must
// reproduce: the SAD at (0,0) in full, then the 4-pixel grid in raster
// order, each candidate summed by sadRef, which stops at the first row
// where the sum reaches the best so far; a candidate replaces the best
// when its sum ends below it, or equal to it when the candidate comes
// first in raster order.
func motionSearchRef(e *Encoder, src, refPix []byte, x0, y0, r int) (int, int, int64) {
	v := e.Video
	bestSAD, bdx, bdy := sadRef(v.W, src, refPix, x0, y0, x0, y0, int64(1)<<62), 0, 0
	rangePx := e.searchRange()
	maxY := (r+e.Cfg.W+1)*MB - MB // stay within completed ref rows
	if maxY > v.H-MB {
		maxY = v.H - MB
	}
	for dy := -rangePx; dy <= rangePx; dy += 4 {
		y := y0 + dy
		if y < 0 || y > maxY {
			continue
		}
		for dx := -rangePx; dx <= rangePx; dx += 4 {
			x := x0 + dx
			if x < 0 || x > v.W-MB {
				continue
			}
			s := sadRef(v.W, src, refPix, x0, y0, x, y, bestSAD)
			if s < bestSAD || (s == bestSAD && (dy < bdy || (dy == bdy && dx < bdx))) {
				bestSAD, bdx, bdy = s, dx, dy
			}
		}
	}
	return bdx, bdy, bestSAD
}

// searchKernels are the motion-search kernels the tests check against
// motionSearchRef: the portable searchSWAR, and this build's searchGrid,
// which is the SSE2 routine on amd64 without -race and searchSWAR again
// everywhere else.
var searchKernels = []struct {
	name string
	fn   searchFunc
}{{"swar", searchSWAR}, {"build", searchGrid}}

// checkSearch checks motionSearch, and searchWith on every kernel in
// searchKernels, against motionSearchRef for every macroblock of a frame
// pair; r is each macroblock's own row, as in the encoder.
func checkSearch(t *testing.T, e *Encoder, src, ref []byte) {
	t.Helper()
	v := e.Video
	for y0 := 0; y0 < v.H; y0 += MB {
		for x0 := 0; x0 < v.W; x0 += MB {
			dx, dy, s := motionSearchRef(e, src, ref, x0, y0, y0/MB)
			if gx, gy, gs := e.motionSearch(src, ref, x0, y0, y0/MB); gx != dx || gy != dy || gs != s {
				t.Fatalf("W=%d MB (%d,%d): motionSearch = (%d,%d) SAD %d, motionSearchRef = (%d,%d) SAD %d", e.Cfg.W, x0, y0, gx, gy, gs, dx, dy, s)
			}
			for _, k := range searchKernels {
				if gx, gy, gs := e.searchWith(k.fn, src, ref, x0, y0, y0/MB); gx != dx || gy != dy || gs != s {
					t.Fatalf("W=%d MB (%d,%d): %s kernel = (%d,%d) SAD %d, motionSearchRef = (%d,%d) SAD %d", e.Cfg.W, x0, y0, k.name, gx, gy, gs, dx, dy, s)
				}
			}
		}
	}
}

// searchEncoders returns encoders for a w×h video at W = 1 and 2: the
// first clips the ±16 px grid only at the frame's edges, the second
// clips the ±32 px one on most macroblocks and at the rows below.
func searchEncoders(w, h int) []*Encoder {
	var es []*Encoder
	for _, rw := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.W = rw
		es = append(es, NewEncoder(&Video{W: w, H: h}, cfg))
	}
	return es
}

// TestMotionSearchMatchesReference checks every macroblock, edges and
// corners with their clipped grids included, of 96×80 frame pairs at
// W = 1 and 2: random, a small perturbation of the source (small SADs,
// late crossings), 0/255 only, and flat, where every candidate ties and
// the first in raster order must win at whatever row its sum meets the
// best. Then a constructed case for the partial-sum tie: a candidate
// before (0,0) whose running sum equals S(0,0) at the row where it
// crosses but whose full SAD is larger, which the reference picks, at
// every row of the crossing; and its twin whose sum jumps past S(0,0),
// which the reference does not.
func TestMotionSearchMatchesReference(t *testing.T) {
	const w, h = 96, 80
	rng := workload.NewRNG(47)
	src, ref := make([]byte, w*h), make([]byte, w*h)
	for i := 0; i < 24; i++ {
		switch i % 4 {
		case 0:
			rng.Bytes(src)
			rng.Bytes(ref)
		case 1:
			rng.Bytes(src)
			for j := range ref {
				ref[j] = src[j] + byte(rng.Intn(3)) - 1
			}
		case 2:
			for j := range src {
				src[j], ref[j] = byte(-(rng.Intn(2))), byte(-(rng.Intn(2)))
			}
		case 3:
			s, r := byte(rng.Intn(256)), byte(rng.Intn(256))
			for j := range src {
				src[j], ref[j] = s, r
			}
		}
		for _, e := range searchEncoders(w, h) {
			checkSearch(t, e, src, ref)
		}
	}

	// The MB at (32,32) of row 2, W = 1: a full 9×9 grid, (0,0) is
	// candidate 40 and candidate 0 is the block at (16,16). Noise keeps
	// every other candidate's sum far above S(0,0) = 40.
	e := searchEncoders(w, h)[0]
	const x0, y0 = 32, 32
	for cross := 0; cross < MB; cross++ {
		for _, jump := range []bool{false, true} {
			rng.Bytes(src)
			for j := range src {
				src[j] = src[j]>>1 + 64 // room for ±40 without wrapping
			}
			rng.Bytes(ref)
			for k := 0; k < MB; k++ {
				copy(ref[(y0+k)*w+x0:][:MB], src[(y0+k)*w+x0:][:MB])
				copy(ref[(16+k)*w+16:][:MB], src[(y0+k)*w+x0:][:MB])
			}
			for i := 0; i < 40; i++ {
				ref[(y0+i%MB)*w+x0+i/MB] += 1 // S(0,0) = 40
			}
			// Candidate 0 reaches 40 at row cross: exactly, or from 39 to 41.
			ref[(16+cross)*w+16] += 40
			if jump {
				ref[(16+cross)*w+16] -= 1
				ref[(16+cross)*w+17] += 2
			}
			if cross+1 < MB {
				ref[(16+cross+1)*w+16] += 9 // a larger full SAD
			}
			wantX, wantY := -16, -16
			if jump {
				wantX, wantY = 0, 0
			}
			if dx, dy, s := motionSearchRef(e, src, ref, x0, y0, y0/MB); dx != wantX || dy != wantY || s != 40 {
				t.Fatalf("cross at row %d, jump %v: motionSearchRef = (%d,%d) SAD %d, want (%d,%d) SAD 40", cross, jump, dx, dy, s, wantX, wantY)
			}
			checkSearch(t, e, src, ref)
		}
	}
}

// TestMotionSearchShortFrame: a frame one byte too short for the last
// macroblock's source block or search window makes motionSearch panic
// with a bounds error from its own slicing, before the kernel runs, also
// when the frame's capacity covers the missing byte.
func TestMotionSearchShortFrame(t *testing.T) {
	const w, h = 48, 32
	e := NewEncoder(&Video{W: w, H: h}, DefaultConfig())
	full, short := make([]byte, w*h), make([]byte, w*h-1)
	for _, c := range []struct {
		name     string
		src, ref []byte
	}{{"src", short, full}, {"ref", full, short}, {"ref resliced", full, full[:w*h-1]}} {
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				stack := string(debug.Stack())
				if !ok || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s one byte short: recovered %v, want a bounds error", c.name, err)
				} else if !strings.Contains(stack, "vidsim.span(") || strings.Contains(stack, "vidsim.searchGrid(") || strings.Contains(stack, "vidsim.searchSWAR(") {
					t.Errorf("%s one byte short: panic not raised by motionSearch's slicing:\n%s", c.name, stack)
				}
			}()
			e.motionSearch(c.src, c.ref, w-MB, h-MB, h/MB-1)
		}()
	}
}

// FuzzMotionSearch checks motionSearch and every kernel against
// motionSearchRef on every macroblock of a 64×48 frame pair built from
// the fuzzer's bytes, at W = 1 and 2. The source repeats a, so short
// inputs give flat or striped frames where many candidates tie; the
// reference is the source moved by shift pixels plus b's bytes masked by
// mask, so small SADs and partial-sum ties come up as well as large ones.
func FuzzMotionSearch(f *testing.F) {
	f.Add([]byte{0, 255}, []byte{255, 0}, uint16(0), byte(0xff))
	f.Add([]byte{7}, []byte{0}, uint16(0), byte(0))
	f.Add([]byte("on-the-fly pipeline parallelism"), []byte("pipe_while"), uint16(68), byte(3))
	f.Fuzz(func(t *testing.T, a, b []byte, shift uint16, mask byte) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		const w, h = 4 * MB, 3 * MB
		src, ref := make([]byte, w*h), make([]byte, w*h)
		for i := range src {
			src[i] = a[i%len(a)]
		}
		for i := range ref {
			ref[i] = src[(i+int(shift))%len(src)] + b[i%len(b)]&mask
		}
		for _, e := range searchEncoders(w, h) {
			checkSearch(t, e, src, ref)
		}
	})
}

// TestReconstructMatchesClampForm runs reconstructMB over every (src,
// pred) byte pair, 256 macroblocks of 256 pairs each, laid out twice so
// that each pair has different neighbours in its word, at QShift 0–7
// and 9. Each output byte must be the clamp form's, the residual each
// pixel codes must be Go's division (src − pred) / 2^QShift, and each
// macroblock's bits the sum of the clamp form's per pixel.
func TestReconstructMatchesClampForm(t *testing.T) {
	const w, h = 16 * MB, 16 * MB
	src, pred := make([]byte, w*h), make([]byte, w*h)
	for _, layout := range []func(i int) (s, p int){
		func(i int) (int, int) { return i >> 8, i & 0xff },
		func(i int) (int, int) { return i & 0xff, i>>8 ^ i&0xff },
	} {
		// Macroblock m holds pairs m*256 ... m*256+255 in raster order.
		for i := 0; i < w*h; i++ {
			m, j := i/(MB*MB), i%(MB*MB)
			pos := (m/16*MB+j/MB)*w + m%16*MB + j%MB
			s, p := layout(i)
			src[pos], pred[pos] = byte(s), byte(p)
		}
		for _, q := range []uint{0, 1, 2, 3, 4, 5, 6, 7, 9} {
			cfg := DefaultConfig()
			cfg.QShift = q
			e := NewEncoder(&Video{W: w, H: h}, cfg)
			rc := &Recon{Pix: make([]byte, w*h)}
			sw := &streamWriter{}
			for y0 := 0; y0 < h; y0 += MB {
				for x0 := 0; x0 < w; x0 += MB {
					var res residual
					bits, _ := e.reconstructMB(src, rc, x0, y0, pred[y0*w+x0:], w, &res)
					var want int64
					var coded [MB * MB]int16
					for k := 0; k < MB*MB; k++ {
						pos := (y0+k/MB)*w + x0 + k%MB
						d := int(src[pos]) - int(pred[pos])
						ad := max(d, -d)
						qd := ad &^ (1<<q - 1)
						if d < 0 {
							qd = -qd
						}
						if got, out := rc.Pix[pos], clampByte(int(pred[pos])+qd); got != out {
							t.Fatalf("QShift %d src %d pred %d: out %d, clamp form %d", q, src[pos], pred[pos], got, out)
						}
						want += int64(ad >> q)
						coded[k] = int16(d / (1 << q))
					}
					if bits != want {
						t.Fatalf("QShift %d MB (%d,%d): bits %d, clamp form %d", q, x0, y0, bits, want)
					}
					sw.buf.Reset()
					sw.codeResidual(&res, q)
					if got := decodeResidual(t, sw.buf.Bytes()); got != coded {
						t.Fatalf("QShift %d MB (%d,%d): coded residual %v, want %v", q, x0, y0, got, coded)
					}
				}
			}
		}
	}
}

// decodeResidual reads one macroblock's residual record back.
func decodeResidual(t *testing.T, b []byte) (q [MB * MB]int16) {
	t.Helper()
	r := bytes.NewReader(b)
	for i := 0; i < len(q); {
		run, err := binary.ReadUvarint(r)
		if err != nil || run > uint64(len(q)-i) {
			t.Fatalf("bad run %d (%v) at %d", run, err, i)
		}
		if i += int(run); i == len(q) {
			break
		}
		v, err := binary.ReadVarint(r)
		if err != nil {
			t.Fatal(err)
		}
		q[i] = int16(v)
		i++
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the residual", r.Len())
	}
	return q
}

// goldenVideo is the x264-onthefly benchmark's input: 120 frames of
// 320×176 with a scene cut every 40.
func goldenVideo() *Video { return Generate(1, 320, 176, 120, 40) }

// TestEncodeGolden pins the serial encoder's output. The pipeline tests
// compare parallel output with serial output only, so a kernel change
// that alters both alike fails here.
func TestEncodeGolden(t *testing.T) {
	r := EncodeSerial(goldenVideo(), DefaultConfig())
	if r.Checksum != 16631717234146871600 || r.TotalBits != 2620988 {
		t.Fatalf("EncodeSerial: Checksum %d, TotalBits %d; want 16631717234146871600, 2620988", r.Checksum, r.TotalBits)
	}
	if r.Violations != 0 {
		t.Fatalf("violations = %d", r.Violations)
	}
}

// BenchmarkSAD times motionSearch's candidate grid over one interior
// macroblock of the golden video, once per kernel in sadKernels:
// 81 full 16×16 SADs (W = 1, a ±16 px window on a 4 px grid), with no
// early exit, so the kernel is measured rather than how soon the data
// lets it stop.
func BenchmarkSAD(b *testing.B) {
	v := goldenVideo()
	e := NewEncoder(v, DefaultConfig())
	src, ref := v.Frames[1], v.Frames[0]
	x0, y0 := 10*MB, 5*MB
	rangePx := e.searchRange()
	for _, k := range sadKernels {
		b.Run(k.name, func(b *testing.B) {
			var sink int64
			for b.Loop() {
				for dy := -rangePx; dy <= rangePx; dy += 4 {
					for dx := -rangePx; dx <= rangePx; dx += 4 {
						sink += k.fn(mbSpan(src, v.W, x0, y0), mbSpan(ref, v.W, x0+dx, y0+dy), v.W, 1<<62)
					}
				}
			}
			if sink < 0 {
				b.Fatal("negative SAD")
			}
		})
	}
}

// BenchmarkMotionSearch runs motionSearch's search over every
// macroblock of frame 1 of the golden video against frame 0, once per
// kernel in searchKernels, and reports the time per candidate: the
// early exits are the encoder's own.
func BenchmarkMotionSearch(b *testing.B) {
	v := goldenVideo()
	e := NewEncoder(v, DefaultConfig())
	src, ref := v.Frames[1], v.Frames[0]
	search := func(kernel searchFunc) (sad int64) {
		for y0 := 0; y0 < v.H; y0 += MB {
			for x0 := 0; x0 < v.W; x0 += MB {
				_, _, s := e.searchWith(kernel, src, ref, x0, y0, y0/MB)
				sad += s
			}
		}
		return sad
	}
	cands := 0
	search(func(_, _ []byte, _, _, _, n int) (int, int64) { cands += n; return 0, 0 })
	for _, k := range searchKernels {
		b.Run(k.name, func(b *testing.B) {
			var sink int64
			for b.Loop() {
				sink += search(k.fn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cands), "ns/candidate")
			if sink < 0 {
				b.Fatal("negative SAD")
			}
		})
	}
}

// BenchmarkEncodeSerial encodes the golden video on one goroutine.
func BenchmarkEncodeSerial(b *testing.B) {
	v := goldenVideo()
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSerial(v, cfg)
	}
}

// BenchmarkReconstructMB quantizes and reconstructs every macroblock of
// frame 1 of the golden video against its co-located block in frame 0,
// and reports the time per macroblock.
func BenchmarkReconstructMB(b *testing.B) {
	v := goldenVideo()
	e := NewEncoder(v, DefaultConfig())
	rc, src, ref := e.NewRecon(1), v.Frames[1], v.Frames[0]
	var res residual
	var sink uint64
	for b.Loop() {
		for y := 0; y < v.H; y += MB {
			for x := 0; x < v.W; x += MB {
				bits, sig := e.reconstructMB(src, rc, x, y, ref[y*v.W+x:], v.W, &res)
				sink += uint64(bits) ^ sig
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*v.Rows()*v.Cols()), "ns/mb")
	if sink == 1 {
		b.Log(sink)
	}
}
