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

// TestSADProperties: SAD of a block against itself is 0, and the
// early-exit limit is respected.
func TestSADProperties(t *testing.T) {
	v := Generate(31, 64, 32, 2, 0)
	e := NewEncoder(v, DefaultConfig())
	if s := e.sad(v.Frames[0], v.Frames[0], 16, 16, 16, 16, 1<<62); s != 0 {
		t.Fatalf("self-SAD = %d", s)
	}
	full := e.sad(v.Frames[0], v.Frames[1], 0, 0, 0, 0, 1<<62)
	limited := e.sad(v.Frames[0], v.Frames[1], 0, 0, 0, 0, 1)
	if full > 0 && limited > full {
		t.Fatalf("early exit returned more than full SAD: %d vs %d", limited, full)
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
