package bench

import (
	"fmt"
	"io"
	"time"

	"piper"
	"piper/internal/dedup"
	"piper/internal/ferret"
	"piper/internal/vidsim"
	"piper/internal/workload"
)

// SizeSpec scales experiments; Small keeps tests fast, Native approximates
// the paper's native-input workloads on a laptop-class machine.
type SizeSpec struct {
	FerretCorpus, FerretQueries, FerretImgW, FerretImgH int
	DedupBytes                                          int
	X264W, X264H, X264Frames                            int
	PipeFibN                                            int
	Reps                                                int
}

// Small is the CI-scale size.
func Small() SizeSpec {
	return SizeSpec{
		FerretCorpus: 200, FerretQueries: 80, FerretImgW: 32, FerretImgH: 32,
		DedupBytes: 1 << 20,
		X264W:      128, X264H: 64, X264Frames: 48,
		PipeFibN: 3000,
		Reps:     1,
	}
}

// Native is the full-scale size.
func Native() SizeSpec {
	return SizeSpec{
		FerretCorpus: 1200, FerretQueries: 700, FerretImgW: 64, FerretImgH: 64,
		DedupBytes: 24 << 20,
		X264W:      320, X264H: 176, X264Frames: 120,
		PipeFibN: 12000,
		Reps:     3,
	}
}

// Scaling declares one of the paper's speedup tables (Fig 6–8): a serial
// reference (TS) and the systems timed against it at each worker count.
type Scaling struct {
	Title   string // the driver appends TS
	K       int    // throttling limit per worker: systems run with K = K·P
	Bytes   int64  // input size for throughput, 0 where it means nothing
	Serial  func()
	Systems []System
	Note    func() string
}

// System is one implementation in a Scaling table. Start returns its run
// at p workers and throttling limit k, and a stop that frees what Start
// made. Name labels its benchmarks, Col its table columns.
type System struct {
	Name, Col string
	Start     func(p, k int) (run, stop func())
}

// cilkP is the system that runs on a PIPER engine of p workers.
func cilkP(run func(eng *piper.Engine, k int)) System {
	return System{"CilkP", "CilkP", func(p, k int) (func(), func()) {
		eng := piper.NewEngine(piper.Workers(p))
		return func() { run(eng, k) }, eng.Close
	}}
}

// threads is a system that starts its own threads on every run.
func threads(name, col string, run func(p, k int)) System {
	return System{name, col, func(p, k int) (func(), func()) {
		return func() { run(p, k) }, func() {}
	}}
}

// Ferret is Figure 6: ferret under Cilk-P, Pthreads bind-to-stage
// (oversubscription Q=P) and TBB's token pipeline, with K = 10P.
func Ferret(sz SizeSpec) Scaling {
	c := ferret.BuildCorpus(sz.FerretCorpus, sz.FerretImgW, sz.FerretImgH)
	qs := ferret.QuerySet{Offset: 1 << 20, N: sz.FerretQueries, TopK: 10}
	return Scaling{
		Title:  fmt.Sprintf("Figure 6: ferret (corpus=%d queries=%d, K=10P)", sz.FerretCorpus, sz.FerretQueries),
		K:      10,
		Serial: func() { c.RunSerial(qs) },
		Systems: []System{
			cilkP(func(eng *piper.Engine, k int) { c.RunPiper(eng, k, qs) }),
			threads("Pthreads", "Pthr", func(p, k int) { c.RunBindStage(p, k, qs) }),
			threads("TBB", "TBB", func(p, k int) { c.RunTBB(p, k, qs) }),
		},
		Note: func() string { return "Sp = TS/TP (speedup over serial); Sc = T1/TP (self-scalability)" },
	}
}

// Dedup is Figure 7: the SSPS dedup pipeline of Figure 4 with K = 4P.
// Its note is the measured dag parallelism that explains the plateau (the
// paper's Cilkview reported 7.4 on the native input).
func Dedup(sz SizeSpec) Scaling {
	data := workload.TextStream(1234, sz.DedupBytes, 4096, 0.35)
	return Scaling{
		Title:  fmt.Sprintf("Figure 7: dedup (%d MiB, K=4P)", sz.DedupBytes>>20),
		K:      4,
		Bytes:  int64(len(data)),
		Serial: func() { _ = dedup.CompressSerial(data, io.Discard) },
		Systems: []System{
			cilkP(func(eng *piper.Engine, k int) { _ = dedup.CompressPiper(eng, k, data, io.Discard) }),
			threads("Pthreads", "Pthr", func(p, k int) { _ = dedup.CompressBindStage(data, p, k, io.Discard) }),
			threads("TBB", "TBB", func(p, k int) { _ = dedup.CompressTBB(data, p, k, io.Discard) }),
		},
		Note: func() string {
			// The profile runs on the calling goroutine whatever the
			// worker count; one worker keeps the idle engine small.
			eng := piper.NewEngine(piper.Workers(1))
			defer eng.Close()
			rep, _ := dedup.ProfilePiper(eng, data, io.Discard)
			return fmt.Sprintf("measured dag parallelism of this input: %.1f (paper's Cilkview reported 7.4 on native)",
				rep.Parallelism())
		},
	}
}

// X264 is Figure 8: the x264 on-the-fly pipeline under Cilk-P and
// Pthreads, with K = 4P.
func X264(sz SizeSpec) Scaling {
	video := vidsim.Generate(777, sz.X264W, sz.X264H, sz.X264Frames, sz.X264Frames/3)
	cfg := vidsim.DefaultConfig()
	return Scaling{
		Title:  fmt.Sprintf("Figure 8: x264 (%dx%d, %d frames, K=4P)", sz.X264W, sz.X264H, sz.X264Frames),
		K:      4,
		Serial: func() { vidsim.EncodeSerial(video, cfg) },
		Systems: []System{
			cilkP(func(eng *piper.Engine, k int) { vidsim.EncodePiper(eng, k, video, cfg) }),
			threads("Pthreads", "Pthr", func(p, _ int) { vidsim.EncodeThreads(video, cfg, p) }),
		},
		Note: func() string {
			return "TBB column absent by design: construct-and-run cannot express x264 (Section 10)"
		},
	}
}

// Table times s's serial reference (TS), every system at one worker (T1)
// and at each p in ps (TP), and renders time, speedup over serial
// (Sp = TS/TP) and self-scalability (Sc = T1/TP) per system.
func (s Scaling) Table(ps []int, reps int) *Table {
	ts := bestOf(reps, s.Serial)
	timeAt := func(p int) []time.Duration {
		tp := make([]time.Duration, len(s.Systems))
		for i, sys := range s.Systems {
			run, stop := sys.Start(p, s.K*p)
			tp[i] = bestOf(reps, run)
			stop()
		}
		return tp
	}
	t1 := timeAt(1)
	tbl := &Table{Title: fmt.Sprintf("%s, TS=%ss", s.Title, secs(ts)), Header: []string{"P"}}
	for _, col := range []string{"T", "Sp", "Sc"} {
		for _, sys := range s.Systems {
			tbl.Header = append(tbl.Header, sys.Col+"-"+col)
		}
	}
	for _, p := range ps {
		tp := t1
		if p != 1 {
			tp = timeAt(p)
		}
		row := []string{fmt.Sprint(p)}
		for i := range tp {
			row = append(row, secs(tp[i]))
		}
		for i := range tp {
			row = append(row, ratio(ts, tp[i]))
		}
		for i := range tp {
			row = append(row, ratio(t1[i], tp[i]))
		}
		tbl.AddRow(row...)
	}
	tbl.Notes = append(tbl.Notes, s.Note())
	return tbl
}
