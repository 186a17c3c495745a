package dag

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"piper/internal/workload"
)

// TestSPSFormulas checks the closed forms of Section 1: T1 = n(r+2), and
// the staircase span max_x { (x+1) + r + (n-x) } = n + r + 1 (the paper
// quotes it as n + r, dropping the additive 1).
func TestSPSFormulas(t *testing.T) {
	for _, tc := range []struct{ n, r int64 }{
		{10, 1}, {100, 50}, {8, 64}, {1000, 10},
	} {
		p := SPS(int(tc.n), tc.r)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := p.Work(), tc.n*(tc.r+2); got != want {
			t.Errorf("SPS(%d,%d) work = %d, want %d", tc.n, tc.r, got, want)
		}
		if got, want := p.Span(), tc.n+tc.r+1; got != want {
			t.Errorf("SPS(%d,%d) span = %d, want %d", tc.n, tc.r, got, want)
		}
	}
}

// TestSPSParallelism: parallelism at least r/2+1 for 1 << r <= n.
func TestSPSParallelism(t *testing.T) {
	p := SPS(1000, 100)
	if par := p.Parallelism(); par < 51 {
		t.Fatalf("parallelism = %v, want >= 51", par)
	}
}

// TestUniformSpan: n+s-1 for unit weights.
func TestUniformSpan(t *testing.T) {
	p := Uniform(20, 5, 1)
	if got := p.Span(); got != 24 {
		t.Fatalf("span = %d, want 24", got)
	}
	if got := p.Work(); got != 100 {
		t.Fatalf("work = %d, want 100", got)
	}
}

// TestThrottledSpanMonotone: smaller K means larger (or equal) span, and
// a huge K reproduces the unthrottled span.
func TestThrottledSpanMonotone(t *testing.T) {
	p := SPS(200, 16)
	base := p.Span()
	last := int64(1) << 62
	for _, k := range []int{1, 2, 4, 8, 16, 64, 1024} {
		s := p.SpanThrottled(k)
		if s < base {
			t.Fatalf("K=%d: throttled span %d below unthrottled %d", k, s, base)
		}
		if s > last {
			t.Fatalf("K=%d: span %d increased from smaller throttle %d", k, s, last)
		}
		last = s
	}
	if s := p.SpanThrottled(100000); s != base {
		t.Fatalf("huge K span = %d, want %d", s, base)
	}
}

// TestUniformThrottlingHarmless reflects Theorem 12: for uniform pipelines
// and K = aP with a > 1, the throttled dag still has parallelism ≥ ~P, so
// PIPER's bound gives linear speedup. We check that for K >= 2s the
// throttled span is within a constant factor of the unthrottled span plus
// T1/K.
func TestUniformThrottlingHarmless(t *testing.T) {
	const n, s = 400, 8
	p := Uniform(n, s, 1)
	t1 := p.Work()
	for _, k := range []int{2 * s, 4 * s, 8 * s} {
		sp := p.SpanThrottled(k)
		bound := 3*(t1/int64(k)) + 3*p.Span()
		if sp > bound {
			t.Fatalf("K=%d: throttled span %d exceeds %d", k, sp, bound)
		}
	}
}

// TestStageSkippingCollapse: cross edges into skipped stages collapse to
// the last real node before them.
func TestStageSkippingCollapse(t *testing.T) {
	// Iteration 0 runs stages 0 and 5 only; iteration 1 waits on stage 3,
	// whose null node in iteration 0 completes when node (0,0) completes.
	p := &Pipeline{Iters: [][]Node{
		{{Stage: 0, Weight: 10}, {Stage: 5, Weight: 100}},
		{{Stage: 0, Weight: 1, Cross: true}, {Stage: 3, Weight: 1, Cross: true}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Longest path: (0,0)=10 -> (1,0)=11 -> (1,3)=12 vs (0,0)+(0,5)=110.
	if got := p.Span(); got != 110 {
		t.Fatalf("span = %d, want 110", got)
	}
	// If the cross edge had come from (0,5), span would be 112 through
	// iteration 1; confirm it is not.
	p2 := &Pipeline{Iters: [][]Node{
		{{Stage: 0, Weight: 10}, {Stage: 3, Weight: 100}},
		{{Stage: 0, Weight: 1, Cross: true}, {Stage: 3, Weight: 1, Cross: true}},
	}}
	// Here stage 3 exists in iteration 0, so the edge is real:
	// (0,0)->(0,3) finishes at 110, then (1,3) at 111.
	if got := p2.Span(); got != 111 {
		t.Fatalf("span = %d, want 111", got)
	}
}

// TestX264DagShape: structure checks mirroring Figure 3.
func TestX264DagShape(t *testing.T) {
	types := []FrameType{FrameI, FrameP, FrameP, FrameI, FrameP}
	p := X264(types, 4, 1, 1, 10, 20, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Iteration i's first row node sits at stage 1 + w*i.
	for i := range types {
		first := p.Iters[i][1]
		if want := int64(1 + i); first.Stage != want {
			t.Errorf("iteration %d first row at stage %d, want %d", i, first.Stage, want)
		}
		wantCross := types[i] == FrameP
		if first.Cross != wantCross {
			t.Errorf("iteration %d row cross = %v, want %v", i, first.Cross, wantCross)
		}
	}
	// An all-I stream has strictly higher parallelism than all-P.
	allI := X264([]FrameType{FrameI, FrameI, FrameI, FrameI, FrameI, FrameI}, 8, 1, 1, 10, 0, 1)
	allP := X264([]FrameType{FrameP, FrameP, FrameP, FrameP, FrameP, FrameP}, 8, 1, 1, 10, 0, 1)
	if allI.Parallelism() <= allP.Parallelism() {
		t.Fatalf("all-I parallelism %.2f should exceed all-P %.2f",
			allI.Parallelism(), allP.Parallelism())
	}
}

// TestPipeFibTriangular: stage count grows with iteration index.
func TestPipeFibTriangular(t *testing.T) {
	p := PipeFib(50)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Iters[49]) <= len(p.Iters[0]) {
		t.Fatal("pipe-fib dag is not triangular")
	}
	// Θ(n²) work, Θ(n) span.
	par := p.Parallelism()
	if par < 3 {
		t.Fatalf("parallelism = %v, want noticeably parallel", par)
	}
}

// TestPathologicalThm13 verifies the work/span identities of Figure 10 and
// the throttling dilemma: with a small window the throttled parallelism
// collapses toward ~3, with a window of T1^(1/3) it is much larger.
func TestPathologicalThm13(t *testing.T) {
	const t1Target = int64(1) << 18
	p := PathologicalThm13(t1Target)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	t1 := p.Work()
	span := p.Span()
	if t1 < t1Target/4 || t1 > 4*t1Target {
		t.Fatalf("work %d not near target %d", t1, t1Target)
	}
	// Span ≤ 2*T1^(2/3) per the theorem statement.
	cbrt := int64(1)
	for cbrt*cbrt*cbrt < t1 {
		cbrt++
	}
	if span > 2*cbrt*cbrt+4 {
		t.Fatalf("span %d exceeds 2*T1^(2/3) = %d", span, 2*cbrt*cbrt)
	}
	smallK := p.ParallelismThrottled(4)
	bigK := p.ParallelismThrottled(int(cbrt) + 2)
	if smallK >= 4 {
		t.Fatalf("small-window parallelism %.2f should be < 4", smallK)
	}
	if bigK < 2*smallK {
		t.Fatalf("large-window parallelism %.2f should dwarf small-window %.2f", bigK, smallK)
	}
}

// TestQuickSpanProperties: randomized shape invariants.
func TestQuickSpanProperties(t *testing.T) {
	gen := func(seed uint64) *Pipeline {
		r := workload.NewRNG(seed)
		n := 1 + r.Intn(20)
		p := &Pipeline{Iters: make([][]Node, n)}
		for i := 0; i < n; i++ {
			stage := int64(0)
			m := 1 + r.Intn(6)
			iter := make([]Node, 0, m)
			for k := 0; k < m; k++ {
				iter = append(iter, Node{
					Stage:  stage,
					Weight: int64(r.Intn(20)),
					Cross:  i > 0 && r.Intn(2) == 0,
				})
				stage += int64(1 + r.Intn(3))
			}
			p.Iters[i] = iter
		}
		return p
	}
	prop := func(seed uint64, kRaw uint8) bool {
		p := gen(seed)
		if err := p.Validate(); err != nil {
			return false
		}
		k := int(kRaw%8) + 1
		t1, sp, spk := p.Work(), p.Span(), p.SpanThrottled(k)
		if sp > t1 || spk > t1 {
			return false // span cannot exceed work
		}
		if spk < sp {
			return false // throttling only adds edges
		}
		return p.SpanThrottled(1<<20) == sp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDOT emits parsable-looking output with cross and throttle edges.
func TestDOT(t *testing.T) {
	p := SPS(6, 3)
	var buf bytes.Buffer
	if err := p.DOT(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph pipeline", "color=blue", "style=dashed", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestValidateRejectsBadShapes.
func TestValidateRejectsBadShapes(t *testing.T) {
	bad := []*Pipeline{
		{Iters: [][]Node{{}}},                                    // empty iteration
		{Iters: [][]Node{{{Stage: 1, Weight: 1}}}},               // missing stage 0
		{Iters: [][]Node{{{Stage: 0}, {Stage: 0}}}},              // non-increasing
		{Iters: [][]Node{{{Stage: 0, Cross: true}, {Stage: 1}}}}, // cross in iter 0
		{Iters: [][]Node{{{Stage: 0, Weight: -1}, {Stage: 1}}}},  // negative weight
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pipeline %d validated", i)
		}
	}
}

// TestPredictSpeedupSaturates at the dag's parallelism.
func TestPredictSpeedup(t *testing.T) {
	p := SPS(10000, 30)
	s1 := p.PredictSpeedup(1, 40)
	if s1 != 1 {
		t.Fatalf("P=1 speedup = %v", s1)
	}
	s4 := p.PredictSpeedup(4, 40)
	if s4 < 3.5 || s4 > 4 {
		t.Fatalf("P=4 speedup = %v", s4)
	}
	s1000 := p.PredictSpeedup(1000, 4000)
	if s1000 > p.Parallelism()+1e-9 {
		t.Fatalf("speedup %v exceeds parallelism %v", s1000, p.Parallelism())
	}
}
