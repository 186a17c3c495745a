// Command pipeserve demonstrates the async serving scenario end to end:
// a multi-tenant driver sustains thousands of concurrent short pipelines
// on one engine — Submit instead of PipeWhile — with randomized
// cancellation, and verifies that the engine drains completely when the
// traffic stops.
//
// Each "request" is a short SPS (serial-parallel-serial) pipeline:
// stage 0 parses the request serially, stage 1 processes chunks in
// parallel (with fork-join inside), and a final pipe_wait stage assembles
// the response in order. A configurable fraction of requests is canceled
// at a random point in flight; the driver checks that canceled requests
// report the context error, everything else completes, and the
// scheduler's live-frame gauges return to zero.
//
// Burst/backpressure mode: -burst makes each tenant issue its requests in
// waves separated by -idle quiet gaps, so the workers park between waves
// and must be woken by the next flood. -maxpending bounds admitted-but-
// unfinished pipelines: -waitadmit queues submissions under backpressure
// (SubmitWait), while without it requests that find the budget full are
// rejected with ErrSaturated and counted.
//
// Arrival control: -rate paces each tenant's submissions (requests per
// second per tenant; 0 issues as fast as the in-flight window allows),
// and -openloop switches from the default closed loop (at most -inflight
// outstanding requests per tenant) to open-loop arrivals, where requests
// are issued on the arrival clock whether or not earlier ones finished —
// the arrival process a latency benchmark needs to avoid coordinated
// omission.
//
// QoS mode: -qos runs the noisy-neighbour scenario against the engine's
// weighted-fair admission queue. Phase one measures a steady quiet tenant
// alone (its solo p99 is the baseline); phase two replays the same quiet
// tenant against a bursty noisy tenant flooding the same engine through
// a low-weight, quota-capped tenant class. The run fails (exit 1) unless
// the quiet tenant's mixed p99 stays within solo_p99 * -qosfactor +
// -qosslack, every engine drains, and each tenant class's admission
// counters reconcile exactly (submitted == admitted+rejected+canceled
// with zero pending/waiting at quiescence).
//
// Usage:
//
//	pipeserve -p 8 -tenants 16 -requests 5000 -cancel 0.2
//	pipeserve -p 2 -burst 3 -idle 30ms -maxpending 8 -waitadmit \
//	          -tenants 4 -requests 400
//	pipeserve -qos -p 2 -maxpending 4 -requests 2000 -work 800 -seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"piper"
	"piper/internal/workload"
)

var (
	p        = flag.Int("p", runtime.GOMAXPROCS(0), "scheduler workers")
	maxPend  = flag.Int("maxpending", 0, "admission budget: max pending pipelines (0: unlimited)")
	waitAdm  = flag.Bool("waitadmit", false, "block for admission (SubmitWait) instead of rejecting with ErrSaturated")
	bursts   = flag.Int("burst", 0, "issue each tenant's requests in this many waves separated by -idle gaps (0: steady)")
	idleGap  = flag.Duration("idle", 30*time.Millisecond, "quiet gap between bursts")
	tenants  = flag.Int("tenants", 16, "concurrent tenants (request issuers)")
	requests = flag.Int("requests", 5000, "total requests across all tenants")
	inflight = flag.Int("inflight", 64, "max in-flight requests per tenant (closed loop)")
	rate     = flag.Float64("rate", 0, "per-tenant arrival rate in req/s (0: unpaced)")
	openLoop = flag.Bool("openloop", false, "open-loop arrivals: issue on the clock, ignore the in-flight window")
	cancelF  = flag.Float64("cancel", 0.2, "fraction of requests canceled mid-flight")
	work     = flag.Int64("work", 2000, "spin units per pipeline stage")
	seed     = flag.Uint64("seed", 1, "workload shape seed")
	qos      = flag.Bool("qos", false, "run the noisy-neighbour QoS scenario (two tenant classes)")
	qosFact  = flag.Float64("qosfactor", 25, "QoS bound: mixed p99 may be at most this multiple of solo p99 (plus -qosslack)")
	qosSlack = flag.Duration("qosslack", 20*time.Millisecond, "QoS bound: absolute slack added to the scaled solo p99")
)

// tenantSpec is one request issuer's load shape.
type tenantSpec struct {
	class    string // tenant class name ("" = default)
	requests int
	inflight int     // closed-loop in-flight window
	rate     float64 // arrivals per second; 0 = unpaced
	openLoop bool
	waitAdm  bool
	bursts   int
	idleGap  time.Duration
	cancelF  float64
	work     int64
	seed     uint64
}

// classHists is the per-tenant-class latency record, split by outcome so
// canceled requests (whose latency includes the canceler's sleep, not
// service time) never contaminate the served percentiles.
type classHists struct {
	served  hist
	aborted hist
}

// runner aggregates one load phase against one engine.
type runner struct {
	eng *piper.Engine

	completed atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
	failures  atomic.Int64

	mu      sync.Mutex
	byClass map[string]*classHists
}

func newRunner(eng *piper.Engine) *runner {
	return &runner{eng: eng, byClass: make(map[string]*classHists)}
}

func (r *runner) class(name string) *classHists {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.byClass[name]
	if ch == nil {
		ch = &classHists{}
		r.byClass[name] = ch
	}
	return ch
}

// runTenant issues spec.requests short SPS pipelines and blocks until
// every one of them resolved. Closed loop bounds outstanding requests by
// spec.inflight; open loop issues purely on the arrival clock.
func (r *runner) runTenant(spec tenantSpec) {
	rng := workload.NewRNG(spec.seed)
	ch := r.class(spec.class)
	sem := make(chan struct{}, spec.inflight)
	var interval time.Duration
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	next := time.Now()
	var tw sync.WaitGroup
	// Burst mode slices the quota into waves; wave boundaries wait for
	// the tenant's in-flight work and then go quiet, long enough for the
	// workers to park before the next flood wakes them.
	waves := 1
	if spec.bursts > 0 {
		waves = spec.bursts
	}
	for wave := 0; wave < waves; wave++ {
		n := spec.requests / waves
		if wave < spec.requests%waves {
			n++
		}
		for q := 0; q < n; q++ {
			if interval > 0 {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
			}
			if !spec.openLoop {
				sem <- struct{}{}
			}
			iters := 4 + int(rng.Intn(12))
			spin := spec.work/2 + int64(rng.Intn(int(spec.work)))
			doCancel := rng.Float64() < spec.cancelF
			cancelAfter := time.Duration(rng.Intn(500)) * time.Microsecond
			tw.Add(1)
			go func() {
				defer tw.Done()
				if !spec.openLoop {
					defer func() { <-sem }()
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var sink atomic.Uint64
				i := 0
				t0 := time.Now()
				cond := func() bool { i++; return i <= iters }
				body := func(it *piper.Iter) {
					sink.Add(workload.Spin(spin)) // stage 0: parse serially
					it.Continue(1)
					it.Go(func() { sink.Add(workload.Spin(spin)) })
					sink.Add(workload.Spin(spin)) // stage 1: parallel body
					it.Sync()
					it.Wait(2)
					sink.Add(workload.Spin(spin / 4)) // stage 2: respond in order
				}
				var h *piper.Handle
				if spec.waitAdm {
					h = r.eng.SubmitWaitTenant(ctx, spec.class, cond, body)
				} else {
					h = r.eng.SubmitTenant(ctx, spec.class, cond, body)
				}
				if doCancel {
					time.Sleep(cancelAfter)
					cancel()
				}
				err := h.Wait()
				switch {
				case err == nil:
					r.completed.Add(1)
					ch.served.record(time.Since(t0))
				case errors.Is(err, piper.ErrSaturated):
					// Rejects resolve in microseconds on the admission fast
					// path; keeping them out of the histograms stops them
					// dragging the served-request percentiles toward zero.
					r.rejected.Add(1)
				case context.Cause(ctx) != nil:
					r.canceled.Add(1)
					ch.aborted.record(time.Since(t0))
				default:
					r.failures.Add(1)
					fmt.Fprintf(os.Stderr, "pipeserve: unexpected error: %v\n", err)
				}
			}()
		}
		if wave < waves-1 {
			tw.Wait()
			time.Sleep(spec.idleGap)
		}
	}
	tw.Wait()
}

// engineOpts assembles the engine configuration from the shared flags.
func engineOpts(extra ...piper.Option) []piper.Option {
	opts := []piper.Option{piper.Workers(*p)}
	if *maxPend > 0 {
		opts = append(opts, piper.MaxPending(*maxPend))
	}
	return append(opts, extra...)
}

// awaitDrain polls the live-frame gauges until the engine reports fully
// drained or the backoff budget runs out.
func awaitDrain(eng *piper.Engine) (piper.Stats, bool) {
	s := eng.Stats()
	drained := s.LiveIterFrames == 0 && s.LiveClosureFrames == 0 && s.LivePipelines == 0
	// Gauges may trail the last completion signal by one worker step.
	for d := time.Millisecond; !drained && d < time.Second; d *= 2 {
		time.Sleep(d)
		s = eng.Stats()
		drained = s.LiveIterFrames == 0 && s.LiveClosureFrames == 0 && s.LivePipelines == 0
	}
	return s, drained
}

// checkTenantAccounting verifies the admitter's per-class invariant at
// quiescence: every submit is accounted exactly once (admitted, rejected,
// or canceled) and no slot or waiter is still outstanding.
func checkTenantAccounting(ts []piper.TenantStats) bool {
	ok := true
	for _, c := range ts {
		if c.Submitted != c.Admitted+c.Rejected+c.Canceled || c.Pending != 0 || c.Waiting != 0 {
			ok = false
		}
	}
	return ok
}

// printTenantStats prints the per-class admission counters and served
// latency percentiles; it returns false if the accounting invariant is
// violated. A nil snapshot (engine without admission control) passes.
func printTenantStats(r *runner) bool {
	ts := r.eng.TenantStats()
	if ts == nil {
		return true
	}
	for _, c := range ts {
		name := c.Name
		if name == "" {
			name = "default"
		}
		fmt.Printf("  tenant %s w=%d quota=%d: submitted=%d admitted=%d rejected=%d canceled=%d waitMs=%.2f pending=%d waiting=%d\n",
			name, c.Weight, c.MaxPending, c.Submitted, c.Admitted, c.Rejected, c.Canceled,
			float64(c.AdmissionWaitNs)/1e6, c.Pending, c.Waiting)
		if ch := r.byClass[c.Name]; ch != nil && ch.served.count() > 0 {
			s := ch.served.sorted()
			fmt.Printf("    served n=%d p50=%v p95=%v p99=%v p999=%v (canceled n=%d excluded)\n",
				len(s),
				percentile(s, 0.50).Round(time.Microsecond),
				percentile(s, 0.95).Round(time.Microsecond),
				percentile(s, 0.99).Round(time.Microsecond),
				percentile(s, 0.999).Round(time.Microsecond),
				ch.aborted.count())
		}
	}
	acct := checkTenantAccounting(ts)
	fmt.Printf("  accounting=%v\n", acct)
	return acct
}

// summarize prints the standard run summary and returns whether the
// phase passed: no unexpected failures, exact outcome accounting, a
// drained engine, and (when admission control is on) reconciled
// per-class counters.
func summarize(r *runner, total, nTenants int, elapsed time.Duration, s piper.Stats, drained bool) bool {
	allServed := r.allServedSorted()
	fmt.Printf("pipeserve: %d requests over %d tenants on P=%d in %v (%.0f req/s)\n",
		total, nTenants, *p, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("  completed=%d canceled=%d rejected=%d failures=%d\n",
		r.completed.Load(), r.canceled.Load(), r.rejected.Load(), r.failures.Load())
	fmt.Printf("  latency p50=%v p95=%v p99=%v p999=%v (served only)\n",
		percentile(allServed, 0.50).Round(time.Microsecond),
		percentile(allServed, 0.95).Round(time.Microsecond),
		percentile(allServed, 0.99).Round(time.Microsecond),
		percentile(allServed, 0.999).Round(time.Microsecond))
	fmt.Printf("  submits=%d cancelRequests=%d abortedPipelines=%d abortedIterations=%d\n",
		s.Submits, s.CancelRequests, s.AbortedPipelines, s.AbortedIterations)
	fmt.Printf("  iterations=%d steals=%d poolHits=%d poolMisses=%d\n",
		s.Iterations, s.Steals, s.FramePoolHits, s.FramePoolMisses)
	fmt.Printf("  admission saturations=%d waitMs=%.2f pending=%d\n",
		s.Saturations, float64(s.AdmissionWaitNs)/1e6, s.PendingAdmitted)
	acct := printTenantStats(r)
	fmt.Printf("  drained=%v\n", drained)
	return r.failures.Load() == 0 && drained && acct &&
		r.completed.Load()+r.canceled.Load()+r.rejected.Load() == int64(total)
}

func (r *runner) allServedSorted() []time.Duration {
	merged := &hist{}
	r.mu.Lock()
	for _, ch := range r.byClass {
		merged.samples = append(merged.samples, ch.served.sorted()...)
	}
	r.mu.Unlock()
	return merged.sorted()
}

// runLoad is the classic multi-tenant load phase: -tenants identical
// issuers sharing the default class.
func runLoad() int {
	eng := piper.NewEngine(engineOpts()...)
	r := newRunner(eng)
	start := time.Now()
	var wg sync.WaitGroup
	for tn := 0; tn < *tenants; tn++ {
		quota := *requests / *tenants
		if tn < *requests%*tenants {
			quota++
		}
		spec := tenantSpec{
			requests: quota,
			inflight: *inflight,
			rate:     *rate,
			openLoop: *openLoop,
			waitAdm:  *waitAdm,
			bursts:   *bursts,
			idleGap:  *idleGap,
			cancelF:  *cancelF,
			work:     *work,
			seed:     *seed*0x9e3779b9 + uint64(tn),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runTenant(spec)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	s, drained := awaitDrain(eng)
	eng.Close()

	if !summarize(r, *requests, *tenants, elapsed, s, drained) {
		return 1
	}
	return 0
}

// runQoS is the noisy-neighbour scenario: a steady quiet tenant measured
// solo, then again while a bursty noisy tenant floods a low-weight,
// quota-capped class on the same engine. Passes only when the quiet
// tenant's p99 inflation stays inside the configured bound.
func runQoS() int {
	noisyQuota := *maxPend / 2
	if noisyQuota < 1 {
		noisyQuota = 1
	}
	classes := piper.Tenants(
		piper.TenantClass{Name: "quiet", Weight: 8},
		piper.TenantClass{Name: "noisy", Weight: 1, MaxPending: noisyQuota},
	)
	quietReq := *requests / 8
	if quietReq < 50 {
		quietReq = 50
	}
	quiet := tenantSpec{
		class:    "quiet",
		requests: quietReq,
		inflight: 1, // steady: one request at a time, back to back
		rate:     *rate,
		waitAdm:  true,
		work:     *work,
		seed:     *seed * 0x9e3779b9,
	}
	noisy := tenantSpec{
		class:    "noisy",
		requests: *requests,
		inflight: *inflight,
		waitAdm:  true,
		bursts:   5,
		idleGap:  5 * time.Millisecond,
		cancelF:  *cancelF,
		work:     *work,
		seed:     *seed*0x9e3779b9 + 1,
	}

	fmt.Printf("pipeserve: qos scenario on P=%d maxpending=%d (quiet w=8 vs noisy w=1 quota=%d)\n",
		*p, *maxPend, noisyQuota)

	// Phase 1: the quiet tenant alone. Its p99 here is the baseline the
	// mixed run is held to.
	soloEng := piper.NewEngine(engineOpts(classes)...)
	soloR := newRunner(soloEng)
	soloR.runTenant(quiet)
	_, soloDrained := awaitDrain(soloEng)
	soloAcct := checkTenantAccounting(soloEng.TenantStats())
	soloEng.Close()
	soloServed := soloR.class("quiet").served.sorted()
	soloP99 := percentile(soloServed, 0.99)
	fmt.Printf("  solo: served=%d p50=%v p99=%v drained=%v\n",
		len(soloServed),
		percentile(soloServed, 0.50).Round(time.Microsecond),
		soloP99.Round(time.Microsecond), soloDrained)

	// Phase 2: same quiet tenant, now sharing the engine with the flood.
	eng := piper.NewEngine(engineOpts(classes)...)
	r := newRunner(eng)
	start := time.Now()
	var wg sync.WaitGroup
	for _, spec := range []tenantSpec{quiet, noisy} {
		spec := spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runTenant(spec)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s, drained := awaitDrain(eng)
	eng.Close()

	total := quiet.requests + noisy.requests
	ok := summarize(r, total, 2, elapsed, s, drained)

	mixedServed := r.class("quiet").served.sorted()
	mixedP99 := percentile(mixedServed, 0.99)
	bound := time.Duration(float64(soloP99)**qosFact) + *qosSlack
	qosOK := len(soloServed) > 0 && len(mixedServed) > 0 && mixedP99 <= bound
	fmt.Printf("  qos: solo_p99=%v mixed_p99=%v bound=%v (factor=%.0f slack=%v) qos=%v\n",
		soloP99.Round(time.Microsecond), mixedP99.Round(time.Microsecond),
		bound.Round(time.Microsecond), *qosFact, *qosSlack, qosOK)

	if !ok || !qosOK || !soloDrained || !soloAcct {
		return 1
	}
	return 0
}

func main() {
	flag.Parse()
	if *tenants < 1 {
		*tenants = 1
	}
	if *requests < 0 {
		*requests = 0
	}
	if *inflight < 1 {
		*inflight = 1
	}
	if *work < 2 {
		*work = 2 // the per-request jitter draws from [work/2, work)
	}
	if *bursts < 0 {
		*bursts = 0
	}
	if *qos {
		if *maxPend <= 0 {
			*maxPend = 4 * *p // QoS needs a budget for admission to contend on
		}
		os.Exit(runQoS())
	}
	os.Exit(runLoad())
}
