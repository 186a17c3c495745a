package vidsim

import (
	"testing"

	"piper/internal/workload"
)

// White-box tests for the encoder kernels.

func flatVideo(w, h, n int, shade byte) *Video {
	v := &Video{W: w, H: h, Frames: make([][]byte, n)}
	for f := range v.Frames {
		frame := make([]byte, w*h)
		for p := range frame {
			frame[p] = shade
		}
		v.Frames[f] = frame
	}
	return v
}

// encodeBRef is EncodeB's definition: each reference's co-located block
// summed by sadRef with an exit at the best sum so far, fwd first, and
// the strictly smaller sum takes the block, so fwd keeps a tie; a block
// with no reference intra-codes into a scratch reconstruction.
func encodeBRef(e *Encoder, bi int, fwd, bwd *Recon) (int64, uint64) {
	v := e.Video
	src := v.Frames[bi]
	scratch := &Recon{Pix: make([]byte, len(src))}
	var bits int64
	var sum uint64 = 1469598103934665603
	for y0 := 0; y0 < v.H; y0 += MB {
		for x0 := 0; x0 < v.W; x0 += MB {
			best, pick := int64(1)<<62, -1
			for ri, ref := range []*Recon{fwd, bwd} {
				if ref == nil {
					continue
				}
				if s := sadRef(v.W, src, ref.Pix, x0, y0, x0, y0, best); s < best {
					best, pick = s, ri
				}
			}
			if pick < 0 {
				b, g := e.encodeIntraMB(bi, y0/MB, x0/MB, scratch, nil)
				bits += b
				sum = (sum ^ g) * 1099511628211
				continue
			}
			bits += best>>e.Cfg.QShift + 4
			sum = (sum ^ (uint64(pick)*2654435761 + uint64(best))) * 1099511628211
		}
	}
	return bits, sum
}

// TestEncodeBMatchesReference pins EncodeB's choice between its two
// references against encodeBRef on 64×48 frames: random, references a
// small perturbation of the source (close sums), flat, and a constructed
// tie (fwd = src+1, bwd = src−1), where EncodeB must read as with fwd
// alone. Each runs with both references, only fwd, only bwd, and
// neither (the intra fallback).
func TestEncodeBMatchesReference(t *testing.T) {
	const w, h = 64, 48
	rng := workload.NewRNG(49)
	src, fp, bp := make([]byte, w*h), make([]byte, w*h), make([]byte, w*h)
	e := NewEncoder(&Video{W: w, H: h, Frames: [][]byte{src}}, DefaultConfig())
	fwd, bwd := &Recon{Pix: fp}, &Recon{Pix: bp}
	fwd.rowsDone.Store(h / MB)
	bwd.rowsDone.Store(h / MB)
	for i := 0; i < 32; i++ {
		kind := [...]string{"random", "near", "flat", "tie"}[i%4]
		switch kind {
		case "random":
			rng.Bytes(src)
			rng.Bytes(fp)
			rng.Bytes(bp)
		case "near":
			rng.Bytes(src)
			for j := range src {
				fp[j] = src[j] + byte(rng.Intn(5)) - 2
				bp[j] = src[j] + byte(rng.Intn(5)) - 2
			}
		case "flat":
			s, f, b := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
			for j := range src {
				src[j], fp[j], bp[j] = s, f, b
			}
		case "tie":
			for j := range src {
				src[j] = 1 + byte(rng.Intn(254))
				fp[j], bp[j] = src[j]+1, src[j]-1
			}
		}
		for _, c := range []struct {
			name     string
			fwd, bwd *Recon
		}{{"both", fwd, bwd}, {"fwd only", fwd, nil}, {"bwd only", nil, bwd}, {"neither", nil, nil}} {
			bits, sum := e.EncodeB(0, c.fwd, c.bwd)
			if wb, ws := encodeBRef(e, 0, c.fwd, c.bwd); bits != wb || sum != ws {
				t.Fatalf("%s frames, %s: EncodeB = %d bits sum %d, encodeBRef = %d bits sum %d", kind, c.name, bits, sum, wb, ws)
			}
		}
		if kind == "tie" {
			bits, sum := e.EncodeB(0, fwd, bwd)
			if fb, fs := e.EncodeB(0, fwd, nil); bits != fb || sum != fs {
				t.Fatalf("tie: EncodeB = %d bits sum %d, with fwd alone %d bits sum %d", bits, sum, fb, fs)
			}
		}
	}
	if n := e.Violations(); n != 0 {
		t.Fatalf("violations = %d", n)
	}
}

// TestIntraFlatFrameCheap: a perfectly flat frame DC-predicts exactly, so
// intra residual bits are ~0 after the first macroblock.
func TestIntraFlatFrameCheap(t *testing.T) {
	v := flatVideo(64, 32, 1, 100)
	e := NewEncoder(v, DefaultConfig())
	rc := e.NewRecon(0)
	var total int64
	for r := 0; r < v.Rows(); r++ {
		b, _ := e.EncodeRow(0, TypeI, r, rc, nil)
		total += b
	}
	// Only per-MB headers remain, plus the first macroblock's bootstrap
	// residual (no neighbours yet: it predicts from the 128 default).
	maxBits := int64(256 + v.Rows()*v.Cols()*8 + 16)
	if total > maxBits {
		t.Fatalf("flat frame cost %d bits, want <= %d", total, maxBits)
	}
}

// TestInterStaticSceneCheap: identical consecutive frames make P-frames
// almost free (the (0,0) motion vector matches exactly).
func TestInterStaticSceneCheap(t *testing.T) {
	v := flatVideo(64, 32, 2, 90)
	e := NewEncoder(v, DefaultConfig())
	ref := e.NewRecon(0)
	for r := 0; r < v.Rows(); r++ {
		e.EncodeRow(0, TypeI, r, ref, nil)
	}
	rc := e.NewRecon(1)
	var total int64
	for r := 0; r < v.Rows(); r++ {
		b, _ := e.EncodeRow(1, TypeP, r, rc, ref)
		total += b
	}
	maxHeaders := int64(v.Rows()*v.Cols()) * 12
	if total > maxHeaders {
		t.Fatalf("static P-frame cost %d bits, want <= %d", total, maxHeaders)
	}
	if e.Violations() != 0 {
		t.Fatalf("violations = %d", e.Violations())
	}
}

// TestAuditDetectsViolation: encoding a P-frame row against an
// incomplete reference must trip the dependency audit — this is what
// gives the scheduler tests teeth.
func TestAuditDetectsViolation(t *testing.T) {
	v := flatVideo(64, 64, 2, 80)
	e := NewEncoder(v, DefaultConfig())
	ref := e.NewRecon(0) // zero rows complete
	rc := e.NewRecon(1)
	e.EncodeRow(1, TypeP, 0, rc, ref)
	if e.Violations() == 0 {
		t.Fatal("audit missed an out-of-order reference access")
	}
}

// TestEncodeBViolationAudit: B-frames require fully reconstructed refs.
func TestEncodeBViolationAudit(t *testing.T) {
	v := flatVideo(64, 32, 3, 70)
	e := NewEncoder(v, DefaultConfig())
	partial := e.NewRecon(0)
	e.EncodeRow(0, TypeI, 0, partial, nil) // only 1 of 2 rows
	e.EncodeB(1, partial, nil)
	if e.Violations() == 0 {
		t.Fatal("EncodeB accepted a partial reference without complaint")
	}
}

// TestEncodeBNoRefs: with neither reference the block intra-codes.
func TestEncodeBNoRefs(t *testing.T) {
	v := flatVideo(32, 32, 1, 60)
	e := NewEncoder(v, DefaultConfig())
	bits, sig := e.EncodeB(0, nil, nil)
	if bits <= 0 || sig == 0 {
		t.Fatalf("no-ref B-frame produced bits=%d sig=%d", bits, sig)
	}
}

// TestReconstructionClamps: extreme residuals stay within byte range.
func TestReconstructionClamps(t *testing.T) {
	v := flatVideo(32, 32, 1, 255)
	e := NewEncoder(v, DefaultConfig())
	rc := e.NewRecon(0)
	e.EncodeRow(0, TypeI, 0, rc, nil)
	for _, px := range rc.Pix[:32*16] {
		if px > 255 {
			t.Fatal("unclamped reconstruction") // unreachable by type, documents intent
		}
	}
}

// TestConfigNormalization: W < 1 becomes 1.
func TestConfigNormalization(t *testing.T) {
	v := flatVideo(32, 32, 1, 10)
	e := NewEncoder(v, Config{W: 0, QShift: 4})
	if e.Cfg.W != 1 {
		t.Fatalf("W = %d, want 1", e.Cfg.W)
	}
}

// TestMotionRangeRespected: best match never references rows beyond
// r + W in the reference (checked indirectly: encode with a ref whose
// legal rows are complete and assert no violation).
func TestMotionRangeRespected(t *testing.T) {
	r := workload.NewRNG(5)
	v := &Video{W: 64, H: 64, Frames: make([][]byte, 2)}
	for f := range v.Frames {
		frame := make([]byte, 64*64)
		r.Bytes(frame)
		v.Frames[f] = frame
	}
	cfg := DefaultConfig()
	cfg.W = 1
	e := NewEncoder(v, cfg)
	ref := e.NewRecon(0)
	// Complete only rows 0..1 of the reference (r=0 needs rows <= 0+1).
	e.EncodeRow(0, TypeI, 0, ref, nil)
	e.EncodeRow(0, TypeI, 1, ref, nil)
	rc := e.NewRecon(1)
	e.EncodeRow(1, TypeP, 0, rc, ref)
	if e.Violations() != 0 {
		t.Fatalf("row 0 with W=1 should only need ref rows <= 1; violations = %d", e.Violations())
	}
}

// TestGatherBuffersBFrames: the stage-0 input loop buffers B's and
// promotes a trailing B to P.
func TestGatherBuffersBFrames(t *testing.T) {
	v := Generate(33, 64, 32, 10, 0)
	d := NewTypeDecider(v, 100, 2, 0) // I BBP BBP ...
	cursor := 0
	var jobs []*ipJob
	for {
		job, ok := gather(d, len(v.Frames), &cursor)
		if !ok {
			break
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	if jobs[0].fi != 0 || jobs[0].typ != TypeI || len(jobs[0].bframes) != 0 {
		t.Fatalf("job 0 = %+v", jobs[0])
	}
	// Subsequent jobs carry their preceding B-run.
	if len(jobs) > 1 && len(jobs[1].bframes) != 2 {
		t.Fatalf("job 1 bframes = %v, want 2", jobs[1].bframes)
	}
	// Every frame appears exactly once across jobs.
	seen := make(map[int]bool)
	for _, j := range jobs {
		if seen[j.fi] {
			t.Fatalf("frame %d appears twice", j.fi)
		}
		seen[j.fi] = true
		for _, b := range j.bframes {
			if seen[b] {
				t.Fatalf("frame %d appears twice", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != len(v.Frames) {
		t.Fatalf("covered %d of %d frames", len(seen), len(v.Frames))
	}
}

// TestBRefsIDRRule: I-frame jobs drop the forward reference.
func TestBRefsIDRRule(t *testing.T) {
	rcA, rcB := &Recon{}, &Recon{}
	jI := &ipJob{typ: TypeI, rc: rcB, prev: rcA}
	if fwd, bwd := jI.bRefs(); fwd != nil || bwd != rcB {
		t.Fatal("IDR must use backward-only prediction")
	}
	jP := &ipJob{typ: TypeP, rc: rcB, prev: rcA}
	if fwd, bwd := jP.bRefs(); fwd != rcA || bwd != rcB {
		t.Fatal("P job must use both references")
	}
}
