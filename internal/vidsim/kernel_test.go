package vidsim

import (
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

// BenchmarkEncodeSerial encodes the golden video on one goroutine.
func BenchmarkEncodeSerial(b *testing.B) {
	v := goldenVideo()
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSerial(v, cfg)
	}
}
