package vidsim

import (
	"bytes"
	"hash/fnv"
	"testing"

	"piper"
)

// TestStreamDecodeMatchesEncoderRecon: the decoder must reproduce the
// encoder's reconstructions bit for bit — the codec round-trip oracle.
func TestStreamDecodeMatchesEncoderRecon(t *testing.T) {
	v := Generate(41, 128, 64, 30, 12)
	st := EncodeStream(v, DefaultConfig())
	w, h, frames, err := Decode(st.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if w != v.W || h != v.H {
		t.Fatalf("decoded dims %dx%d", w, h)
	}
	if len(frames) != len(st.Recons) {
		t.Fatalf("decoded %d frames, encoder made %d recons", len(frames), len(st.Recons))
	}
	for i, df := range frames {
		rc := st.Recons[i]
		if df.Frame != rc.Frame {
			t.Fatalf("frame order mismatch at %d: %d vs %d", i, df.Frame, rc.Frame)
		}
		if !bytes.Equal(df.Pix, rc.Pix) {
			t.Fatalf("frame %d reconstruction mismatch", df.Frame)
		}
	}
}

// TestStreamQualityReasonable: decoded frames should resemble the source
// (lossy but not garbage), and quality must drop as QShift coarsens.
func TestStreamQualityReasonable(t *testing.T) {
	v := Generate(42, 128, 64, 12, 0)
	measure := func(q uint) float64 {
		cfg := DefaultConfig()
		cfg.QShift = q
		_, _, frames, err := Decode(EncodeStream(v, cfg).Bytes)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, df := range frames {
			total += PSNR(v.Frames[df.Frame], df.Pix)
		}
		return total / float64(len(frames))
	}
	fine := measure(2)
	coarse := measure(6)
	if fine < 25 {
		t.Fatalf("PSNR at q=2 is %.1f dB, want >= 25", fine)
	}
	if coarse >= fine {
		t.Fatalf("coarser quantization should reduce PSNR: q2=%.1f q6=%.1f", fine, coarse)
	}
}

// TestStreamCompresses: the coded stream should be much smaller than raw
// reference frames for a motion-heavy scene.
func TestStreamCompresses(t *testing.T) {
	v := Generate(43, 128, 64, 30, 0)
	st := EncodeStream(v, DefaultConfig())
	raw := len(st.Recons) * v.W * v.H
	if len(st.Bytes) >= raw/2 {
		t.Fatalf("stream %d bytes vs raw %d — not compressing", len(st.Bytes), raw)
	}
}

// TestDecodeRejectsGarbage.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, _, err := Decode([]byte("not a stream")); err == nil {
		t.Error("bad magic accepted")
	}
	v := Generate(44, 64, 32, 6, 0)
	st := EncodeStream(v, DefaultConfig())
	if _, _, _, err := Decode(st.Bytes[:len(st.Bytes)/2]); err == nil {
		t.Error("truncated stream accepted")
	}
	mut := append([]byte{}, st.Bytes...)
	mut[10] = 0xFD // corrupt header area
	if _, _, _, err := Decode(mut); err == nil {
		// Corruption may land harmlessly; flip a structural byte instead.
		mut2 := append([]byte{}, st.Bytes...)
		mut2[len(streamMagic)] = 0xFF
		if _, _, _, err2 := Decode(mut2); err2 == nil {
			t.Error("corrupted stream accepted twice")
		}
	}
}

// TestPSNRProperties.
func TestPSNRProperties(t *testing.T) {
	a := make([]byte, 1024)
	for i := range a {
		a[i] = byte(i)
	}
	if p := PSNR(a, a); p < 90 {
		t.Fatalf("identical frames PSNR = %v", p)
	}
	b := append([]byte{}, a...)
	for i := range b {
		b[i] ^= 0x7F
	}
	if p := PSNR(a, b); p > 20 {
		t.Fatalf("wildly different frames PSNR = %v", p)
	}
	if PSNR(a, a[:10]) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
}

// TestPiperStreamIdentical: the parallel pipeline must emit a
// byte-identical bitstream at every worker count, and it must decode.
func TestPiperStreamIdentical(t *testing.T) {
	v := Generate(46, 128, 64, 30, 12)
	cfg := DefaultConfig()
	want := EncodeStream(v, cfg)
	for _, p := range []int{1, 2, 4} {
		eng := piper.NewEngine(piper.Workers(p))
		got := EncodePiperStream(eng, 4*p, v, cfg)
		eng.Close()
		if !bytes.Equal(got.Bytes, want.Bytes) {
			t.Fatalf("P=%d: parallel bitstream differs from serial", p)
		}
	}
	_, _, frames, err := Decode(want.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(want.Recons) {
		t.Fatalf("decoded %d frames", len(frames))
	}
}

// TestStreamGolden pins the coded bytes: TestEncodeGolden sees only the
// estimating checksums, so a change to what the stream records (modes,
// vectors, residuals, frame order) fails here. The parallel pipeline
// must emit the same bytes at every worker count.
func TestStreamGolden(t *testing.T) {
	cut := Generate(41, 128, 64, 30, 12)
	w2, q2 := DefaultConfig(), DefaultConfig()
	w2.W = 2
	q2.QShift = 2
	for _, tc := range []struct {
		name string
		v    *Video
		cfg  Config
		n    int
		hash uint64
	}{
		{"default", cut, DefaultConfig(), 39759, 11563401801836153799},
		{"W=2", Generate(46, 128, 96, 24, 0), w2, 23453, 17178980393776751668},
		{"QShift=2", cut, q2, 72490, 10129401666609295273},
	} {
		st := EncodeStream(tc.v, tc.cfg)
		h := fnv.New64a()
		h.Write(st.Bytes)
		if len(st.Bytes) != tc.n || h.Sum64() != tc.hash {
			t.Errorf("%s: EncodeStream gives %d bytes, fnv64a %d; want %d, %d", tc.name, len(st.Bytes), h.Sum64(), tc.n, tc.hash)
		}
		for _, p := range []int{1, 2, 4} {
			eng := piper.NewEngine(piper.Workers(p))
			got := EncodePiperStream(eng, 4*p, tc.v, tc.cfg)
			eng.Close()
			if !bytes.Equal(got.Bytes, st.Bytes) {
				t.Errorf("%s: P=%d: EncodePiperStream differs from EncodeStream", tc.name, p)
			}
		}
	}
}
