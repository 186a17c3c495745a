package piper_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piper"
	"piper/internal/workload"
)

// waitTenant polls the named class's snapshot until pred holds, failing
// the test after timeout. The admission gauges are exact under the
// admitter mutex, so polling them is how these tests sequence waiter
// arrival deterministically.
func waitTenant(t *testing.T, e *piper.Engine, name string, timeout time.Duration, pred func(piper.TenantStats) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, ts := range e.TenantStats() {
			if ts.Name == name && pred(ts) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q: condition not reached; stats: %+v", name, e.TenantStats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// gatedSubmitTenant pins one admission slot of the named class until
// gate closes.
func gatedSubmitTenant(e *piper.Engine, tenant string, gate <-chan struct{}) *piper.Handle {
	i := 0
	return e.SubmitTenant(nil, tenant, func() bool { i++; return i == 1 }, func(it *piper.Iter) {
		it.Continue(1)
		<-gate
	})
}

// TestSubmitWaitFIFOAdmission is the starvation-freedom regression for
// the admission queue: N SubmitWait callers blocked on a full budget
// must be admitted in exactly their arrival order once slots free. The
// old token-channel admission woke blocked senders in *random* order
// (Go's select among blocked channel sends), so a continually-refilled
// queue could defer any given waiter indefinitely; the FIFO class queue
// makes the order deterministic and the wait bounded.
func TestSubmitWaitFIFOAdmission(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const n = 12
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	handles := make([]*piper.Handle, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			// With MaxPending 1 the admitted pipelines run one at a time,
			// so the order their bodies record is the admission order.
			handles[i] = e.SubmitWait(nil, func() bool { j++; return j == 1 }, func(it *piper.Iter) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
			if err := handles[i].Wait(); err != nil {
				t.Errorf("waiter %d: Wait = %v", i, err)
			}
		}()
		// Sequence the arrivals: waiter i must be queued before waiter
		// i+1 starts, or the arrival order itself would be racy.
		waitTenant(t, e, piper.DefaultTenant, 5*time.Second, func(ts piper.TenantStats) bool {
			return ts.Waiting == int64(i+1)
		})
	}

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	wg.Wait()

	if len(order) != n {
		t.Fatalf("admitted %d of %d waiters", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v: waiter %d admitted at position %d, want FIFO", order, got, i)
		}
	}
	ts := e.TenantStats()[0]
	if ts.Submitted != n+1 || ts.Admitted != n+1 || ts.Rejected != 0 || ts.Canceled != 0 {
		t.Errorf("accounting: %+v, want %d submitted == admitted", ts, n+1)
	}
	checkEngineDrained(t, e)
}

// TestTenantWeightedFairShare pins the deficit-round-robin split: with
// classes weighted 3 ("gold") and 1 ("bulk") both backlogged behind a
// one-slot budget, freed slots must be granted in a 1-bulk/3-gold cycle
// regardless of arrival interleaving.
func TestTenantWeightedFairShare(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1), piper.Tenants(
		piper.TenantClass{Name: "bulk", Weight: 1},
		piper.TenantClass{Name: "gold", Weight: 3},
	))
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const perClass = 8
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueue := func(class string, already int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			h := e.SubmitWaitTenant(nil, class, func() bool { j++; return j == 1 }, func(it *piper.Iter) {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
			})
			if err := h.Wait(); err != nil {
				t.Errorf("%s: Wait = %v", class, err)
			}
		}()
		waitTenant(t, e, class, 5*time.Second, func(ts piper.TenantStats) bool {
			return ts.Waiting == already+1
		})
	}
	// Interleave arrivals gold-first; DRR must ignore the interleaving
	// and serve by weight.
	for i := 0; i < perClass; i++ {
		enqueue("gold", int64(i))
		enqueue("bulk", int64(i))
	}

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	wg.Wait()

	if len(order) != 2*perClass {
		t.Fatalf("admitted %d of %d waiters: %v", len(order), 2*perClass, order)
	}
	// One full round grants bulk its 1 and gold its 3 (ring order puts
	// bulk first — it registered first). Both classes stay backlogged for
	// the first two full rounds: assert the exact 8-admission prefix.
	want := []string{"bulk", "gold", "gold", "gold", "bulk", "gold", "gold", "gold"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("admission order %v: position %d = %s, want %s (DRR 1:3 split)", order[:len(want)], i, order[i], w)
		}
	}
	gold, bulk := 0, 0
	for _, c := range order[:len(want)] {
		if c == "gold" {
			gold++
		} else {
			bulk++
		}
	}
	if gold != 6 || bulk != 2 {
		t.Fatalf("first %d admissions: gold=%d bulk=%d, want 6:2", len(want), gold, bulk)
	}
	checkEngineDrained(t, e)
}

// TestTenantQuota pins the per-class MaxPending quota: a class at its
// quota rejects (Submit) or queues (SubmitWait) even while the global
// budget and other classes have room.
func TestTenantQuota(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(4), piper.Tenants(
		piper.TenantClass{Name: "capped", MaxPending: 1},
		piper.TenantClass{Name: "free"},
	))
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmitTenant(e, "capped", gate)
	waitTenant(t, e, "capped", 5*time.Second, func(ts piper.TenantStats) bool { return ts.Pending == 1 })

	// The capped class is full: reject policy fails fast...
	h1 := e.SubmitTenant(nil, "capped", func() bool { return false }, func(*piper.Iter) {})
	if err := h1.Wait(); !errors.Is(err, piper.ErrSaturated) {
		t.Fatalf("capped class at quota: err = %v, want ErrSaturated", err)
	}
	// ...while the global budget still admits other classes.
	h2 := e.SubmitTenant(nil, "free", func() bool { return false }, func(*piper.Iter) {})
	if err := h2.Wait(); err != nil {
		t.Fatalf("free class blocked by capped class's quota: %v", err)
	}

	// A queued capped waiter is admitted as soon as the quota frees.
	done := make(chan error, 1)
	go func() {
		h := e.SubmitWaitTenant(nil, "capped", func() bool { return false }, func(*piper.Iter) {})
		done <- h.Wait()
	}()
	waitTenant(t, e, "capped", 5*time.Second, func(ts piper.TenantStats) bool { return ts.Waiting == 1 })
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued capped waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("capped waiter not admitted after its quota freed")
	}
	checkEngineDrained(t, e)
}

// TestSubmitUnknownTenant pins the configuration-error contract: an
// unconfigured class name fails the Handle with ErrUnknownTenant, on
// engines with and without tenant configuration.
func TestSubmitUnknownTenant(t *testing.T) {
	e := piper.NewEngine(piper.Workers(1), piper.Tenants(piper.TenantClass{Name: "known"}))
	defer e.Close()
	if err := e.SubmitTenant(nil, "mystery", nil, nil).Wait(); !errors.Is(err, piper.ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	if err := e.SubmitWaitTenant(nil, "mystery", nil, nil).Wait(); !errors.Is(err, piper.ErrUnknownTenant) {
		t.Fatalf("unknown tenant (wait): err = %v, want ErrUnknownTenant", err)
	}

	// No admission control at all: only the default class exists.
	plain := piper.NewEngine(piper.Workers(1))
	defer plain.Close()
	if err := plain.SubmitTenant(nil, "anyone", nil, nil).Wait(); !errors.Is(err, piper.ErrUnknownTenant) {
		t.Fatalf("tenant on plain engine: err = %v, want ErrUnknownTenant", err)
	}
	i := 0
	if err := plain.SubmitTenant(nil, piper.DefaultTenant, func() bool { i++; return i == 1 }, func(*piper.Iter) {}).Wait(); err != nil {
		t.Fatalf("default tenant on plain engine: %v", err)
	}
}

// TestTenantCloseReleasesWaiters pins Close against queued admissions:
// every parked SubmitWait caller must resolve with ErrEngineClosed, and
// the class accounting must balance.
func TestTenantCloseReleasesWaiters(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			h := e.SubmitWait(nil, func() bool { return false }, func(*piper.Iter) {})
			errs <- h.Wait()
		}()
		i := i
		waitTenant(t, e, piper.DefaultTenant, 5*time.Second, func(ts piper.TenantStats) bool {
			return ts.Waiting == int64(i+1)
		})
	}
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	// One waiter is admitted by the freed slot and completes; Close must
	// release the rest with ErrEngineClosed. (Close is legal here: the
	// admitted pipeline is empty and completes before its Wait returns.)
	e.Close()
	admitted, closed := 0, 0
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, piper.ErrEngineClosed):
				closed++
			default:
				t.Errorf("waiter err = %v, want nil or ErrEngineClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter leaked: still blocked after Close")
		}
	}
	if admitted+closed != n {
		t.Fatalf("accounting: admitted=%d closed=%d, want %d total", admitted, closed, n)
	}
	ts := e.TenantStats()[0]
	if ts.Waiting != 0 || ts.Pending != 0 {
		t.Errorf("gauges after Close: %+v, want zero Waiting/Pending", ts)
	}
	if ts.Submitted != ts.Admitted+ts.Rejected+ts.Canceled {
		t.Errorf("per-class sum: %+v, want Submitted == Admitted+Rejected+Canceled", ts)
	}
}

func TestSubmitRejectSaturated(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))
	defer e.Close()

	gate := make(chan struct{})
	h1 := gatedSubmit(e, gate)

	h2 := e.Submit(nil, func() bool { return false }, func(*piper.Iter) {})
	if err := h2.Wait(); !errors.Is(err, piper.ErrSaturated) {
		t.Fatalf("second Submit on a full budget: err = %v, want ErrSaturated", err)
	}
	if s := e.Stats(); s.Saturations != 1 {
		t.Errorf("Saturations = %d, want 1", s.Saturations)
	}
	if s := e.Stats(); s.PendingAdmitted != 1 {
		t.Errorf("PendingAdmitted = %d, want 1 while the gated pipeline runs", s.PendingAdmitted)
	}

	close(gate)
	if err := h1.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	// The slot is released before the Handle completes, so a new Submit
	// is admitted immediately.
	h3 := e.Submit(nil, func() bool { return false }, func(*piper.Iter) {})
	if err := h3.Wait(); err != nil {
		t.Fatalf("Submit after release: err = %v, want nil", err)
	}
	if s := e.Stats(); s.PendingAdmitted != 0 {
		t.Errorf("PendingAdmitted = %d after completion, want 0", s.PendingAdmitted)
	}
	checkEngineDrained(t, e)
}

// TestRefusedCancelCountsNothing: a submission refused before it reached
// the scheduler (an unknown tenant, a saturated budget, a closed engine,
// with and without a budget) fails its Handle at once, and canceling
// that Handle counts no CancelRequests, since no pipeline ran.
func TestRefusedCancelCountsNothing(t *testing.T) {
	cond, body := func() bool { return false }, func(*piper.Iter) {}
	check := func(e *piper.Engine, name string, h *piper.Handle, want error) {
		t.Helper()
		if err := h.Wait(); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		h.Cancel()
		if n := e.Stats().CancelRequests; n != 0 {
			t.Errorf("%s: CancelRequests = %d after Cancel, want 0", name, n)
		}
	}

	plain := piper.NewEngine(piper.Workers(1))
	check(plain, "unknown tenant, no classes", plain.SubmitTenant(nil, "nobody", cond, body), piper.ErrUnknownTenant)
	plain.Close()
	check(plain, "closed engine, no budget", plain.Submit(nil, cond, body), piper.ErrEngineClosed)

	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))
	check(e, "unknown tenant", e.SubmitTenant(nil, "nobody", cond, body), piper.ErrUnknownTenant)
	gate := make(chan struct{})
	h := gatedSubmit(e, gate)
	check(e, "saturated", e.Submit(nil, cond, body), piper.ErrSaturated)
	close(gate)
	if err := h.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	e.Close()
	check(e, "closed engine", e.Submit(nil, cond, body), piper.ErrEngineClosed)
}

func TestSubmitWaitBlocksUntilAdmitted(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1))
	defer e.Close()

	gate := make(chan struct{})
	h1 := gatedSubmit(e, gate)

	admitted := make(chan *piper.Handle, 1)
	go func() {
		var n atomic.Int64
		i := 0
		admitted <- e.SubmitWait(nil, func() bool { i++; return i <= 3 }, func(*piper.Iter) { n.Add(1) })
	}()
	waitTenant(t, e, piper.DefaultTenant, 5*time.Second, func(ts piper.TenantStats) bool { return ts.Waiting == 1 })
	select {
	case <-admitted:
		t.Fatal("SubmitWait returned while the budget was exhausted")
	default:
	}

	close(gate)
	if err := h1.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	var h2 *piper.Handle
	select {
	case h2 = <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitWait still blocked after the slot freed")
	}
	if err := h2.Wait(); err != nil {
		t.Fatalf("SubmitWait pipeline failed: %v", err)
	}
	if s := e.Stats(); s.AdmissionWaitNs <= 0 {
		t.Errorf("AdmissionWaitNs = %d, want > 0 after a blocked admission", s.AdmissionWaitNs)
	}
	checkEngineDrained(t, e)
}

// TestTenantStatsDerivedCounters pins the engine-wide admission counters
// to the per-class ones after a storm of SubmitWait callers, context
// cancellations, rejections and a racing Close: at quiescence
// Stats().Saturations is Σ (Rejected + Canceled), Stats().AdmissionWaitNs
// is Σ AdmissionWaitNs, and PendingAdmitted and every class's Pending are
// zero.
func TestTenantStatsDerivedCounters(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(2), piper.Tenants(piper.TenantClass{Name: "a", Weight: 2}, piper.TenantClass{Name: "b", MaxPending: 1}))
	classes := []string{piper.DefaultTenant, "a", "b"}

	// One of each outcome for certain: with both slots pinned, a Submit is
	// rejected and a SubmitWait whose deadline passes is withdrawn.
	gate := make(chan struct{})
	pinned := []*piper.Handle{gatedSubmit(e, gate), gatedSubmitTenant(e, "a", gate)}
	if err := e.SubmitTenant(nil, "b", nil, nil).Wait(); !errors.Is(err, piper.ErrSaturated) {
		t.Fatalf("Submit on a full budget: %v, want ErrSaturated", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	if err := e.SubmitWaitTenant(ctx, "a", nil, nil).Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired SubmitWait: %v, want DeadlineExceeded", err)
	}
	cancel()
	close(gate)
	for _, h := range pinned {
		if err := h.Wait(); err != nil {
			t.Fatalf("pinned pipeline: %v", err)
		}
	}

	const callers, per = 6, 30
	rng := workload.NewRNG(0xd31)
	var wg sync.WaitGroup
	// Close races the storm's second half: each caller reports once a
	// third of its submissions have resolved.
	warm := make(chan struct{}, callers)
	for c := range callers {
		delays := make([]time.Duration, per)
		for q := range delays {
			delays[q] = time.Duration(rng.Intn(400)) * time.Microsecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q, d := range delays {
				ctx, cancel := context.WithTimeout(context.Background(), d)
				i := 0
				var sink atomic.Uint64
				cond := func() bool { i++; return i <= 2 }
				body := func(*piper.Iter) { sink.Add(workload.Spin(300)) }
				tenant := classes[(c+q)%len(classes)]
				var h *piper.Handle
				if q%5 == 0 {
					h = e.SubmitTenant(ctx, tenant, cond, body)
				} else {
					h = e.SubmitWaitTenant(ctx, tenant, cond, body)
				}
				if err := h.Wait(); err != nil && !errors.Is(err, piper.ErrSaturated) && !errors.Is(err, piper.ErrEngineClosed) &&
					!errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("storm handle: %v", err)
				}
				cancel()
				if q == per/3 {
					warm <- struct{}{}
				}
			}
		}()
	}
	for range callers {
		<-warm
	}
	e.Close()
	wg.Wait()

	s := e.Stats()
	var sat, wait, pending, rejected, canceled int64
	for _, ts := range e.TenantStats() {
		if ts.Waiting != 0 || ts.Submitted != ts.Admitted+ts.Rejected+ts.Canceled {
			t.Errorf("class %q at quiescence: %+v", ts.Name, ts)
		}
		sat += ts.Rejected + ts.Canceled
		wait += ts.AdmissionWaitNs
		pending += ts.Pending
		rejected += ts.Rejected
		canceled += ts.Canceled
	}
	if s.Saturations != sat || s.AdmissionWaitNs != wait {
		t.Errorf("Stats Saturations %d, AdmissionWaitNs %d; class sums %d, %d", s.Saturations, s.AdmissionWaitNs, sat, wait)
	}
	if s.PendingAdmitted != pending || pending != 0 {
		t.Errorf("PendingAdmitted %d, Σ Pending %d, want both 0", s.PendingAdmitted, pending)
	}
	if rejected == 0 || canceled == 0 || wait <= 0 {
		t.Errorf("storm missed an outcome: rejected %d, canceled %d, wait %d ns", rejected, canceled, wait)
	}
}

// TestSubmitWaitContextDeadline pins that the caller's context is what
// bounds an admission wait, for the default class and for a named one: a
// waiter whose ctx expires is withdrawn with DeadlineExceeded and is
// accounted as canceled, not rejected.
func TestSubmitWaitContextDeadline(t *testing.T) {
	for name, tenant := range map[string]string{"default": piper.DefaultTenant, "named": "named"} {
		t.Run(name, func(t *testing.T) {
			e := piper.NewEngine(piper.Workers(2), piper.MaxPending(1), piper.Tenants(piper.TenantClass{Name: "named"}))
			defer e.Close()

			gate := make(chan struct{})
			h1 := gatedSubmit(e, gate)

			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
			defer cancel()
			h2 := e.SubmitWaitTenant(ctx, tenant, func() bool { return true }, func(*piper.Iter) {})
			if err := h2.Wait(); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline admission: err = %v, want DeadlineExceeded", err)
			}
			if s := e.Stats(); s.Saturations < 1 {
				t.Errorf("Saturations = %d, want >= 1 after an expired admission", s.Saturations)
			}
			for _, ts := range e.TenantStats() {
				if ts.Name != tenant {
					continue
				}
				want := int64(1) // the waiter
				if tenant == piper.DefaultTenant {
					want = 2 // and the gated pipeline
				}
				if ts.Submitted != want || ts.Canceled != 1 || ts.Rejected != 0 || ts.Waiting != 0 || ts.AdmissionWaitNs <= 0 {
					t.Errorf("class %q after an expired wait: %+v, want Submitted %d, Canceled 1, Rejected 0, Waiting 0, AdmissionWaitNs > 0", tenant, ts, want)
				}
			}

			close(gate)
			if err := h1.Wait(); err != nil {
				t.Fatalf("gated pipeline failed: %v", err)
			}
			checkEngineDrained(t, e)
		})
	}
}

// TestSubmitWaitAdmitsAll drives far more pipelines than the budget
// allows through concurrent SubmitWait callers: every handle must resolve
// successfully — saturation delays work, it never loses it.
func TestSubmitWaitAdmitsAll(t *testing.T) {
	e := piper.NewEngine(piper.Workers(2), piper.MaxPending(2))
	defer e.Close()

	const callers, per = 8, 25
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < per; q++ {
				i := 0
				var sink atomic.Uint64
				h := e.SubmitWait(nil, func() bool { i++; return i <= 3 }, func(it *piper.Iter) {
					sink.Add(workload.Spin(200))
					it.Continue(1)
					sink.Add(workload.Spin(200))
				})
				if err := h.Wait(); err != nil {
					t.Errorf("SubmitWait pipeline failed: %v", err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := completed.Load(); got != callers*per {
		t.Errorf("completed %d pipelines, want %d", got, callers*per)
	}
	s := e.Stats()
	if s.PendingAdmitted != 0 {
		t.Errorf("PendingAdmitted = %d after drain, want 0", s.PendingAdmitted)
	}
	checkEngineDrained(t, e)
}

// TestCloseUnderChurn races Engine.Close against park/wake churn and
// SubmitWait admission: every handle must resolve (completed or
// ErrEngineClosed) and Close must return — the wake sweep may not strand a
// worker that un-idles or parks between its claim and its wake token (see
// the audit comment in Close).
func TestCloseUnderChurn(t *testing.T) {
	for round := 0; round < 40; round++ {
		e := piper.NewEngine(piper.Workers(2), piper.MaxPending(2))
		const submitters = 4
		var handles [submitters][3]*piper.Handle
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for q := 0; q < 3; q++ {
					i := 0
					handles[s][q] = e.SubmitWait(nil, func() bool { i++; return i <= 2 }, func(it *piper.Iter) {
						it.Continue(1)
					})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Close()
		}()
		close(start)
		wg.Wait()
		done := make(chan struct{})
		go func() {
			for s := range handles {
				for _, h := range handles[s] {
					if err := h.Wait(); err != nil && !errors.Is(err, piper.ErrEngineClosed) {
						t.Errorf("round %d: unexpected handle error: %v", round, err)
					}
				}
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a handle hung across Close under churn", round)
		}
	}
}
