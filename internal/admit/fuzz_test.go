package admit

import (
	"context"
	"slices"
	"testing"
)

// model is the reference admission policy FuzzAdmission checks Sem
// against, step by step. Its rule: a free slot goes to the first class in
// ring order from the cursor that has a queued waiter, room under the
// limit and its quota, and credit left this round; when no class has
// credit, every such class is refilled to its weight. Within a class the
// oldest waiter goes first, and a waiter leaves the queue otherwise only
// when its context ends or Close runs.
type model struct {
	limit, held, rr int
	cls             []mclass
	verdict         map[int]error // resolved waiters, by id
}

type mclass struct {
	weight, quota, credit, pending int
	q                              []int // waiter ids, oldest first
	st                             ClassStats
}

func (m *model) room(c int) bool {
	k := &m.cls[c]
	return (m.limit <= 0 || m.held < m.limit) && (k.quota == 0 || k.pending < k.quota)
}

func (m *model) grant(c int) {
	m.held++
	m.cls[c].pending++
	m.cls[c].st.Admitted++
}

// next returns the class whose oldest waiter the rule admits, or -1.
func (m *model) next() int {
	n := len(m.cls)
	ready := func(i int) bool { return len(m.cls[i].q) > 0 && m.room(i) }
	for refilled := false; ; refilled = true {
		for k := range n {
			if i := (m.rr + k) % n; ready(i) && m.cls[i].credit > 0 {
				if m.cls[i].credit--; m.cls[i].credit == 0 {
					m.rr = (i + 1) % n
				}
				return i
			}
		}
		if refilled {
			return -1
		}
		for i := range m.cls {
			if ready(i) {
				m.cls[i].credit = m.cls[i].weight
			}
		}
	}
}

func (m *model) release(c int) {
	m.held--
	m.cls[c].pending--
	for i := m.next(); i >= 0; i = m.next() {
		id := m.cls[i].q[0]
		m.cls[i].q = m.cls[i].q[1:]
		m.grant(i)
		m.verdict[id] = nil
	}
}

// drop takes waiter id out of class c's queue with verdict err and
// reports whether it was still queued.
func (m *model) drop(c, id int, err error) bool {
	i := slices.Index(m.cls[c].q, id)
	if i < 0 {
		return false
	}
	m.cls[c].q = slices.Delete(m.cls[c].q, i, i+1)
	m.verdict[id] = err
	return true
}

// fuzzWaiter is a queued Acquire whose caller has not yet observed its
// verdict: deadline is its context's expiry on the fuzzer's clock (0: none).
type fuzzWaiter struct {
	id, ci, deadline int
	w                *waiter
}

// FuzzAdmission drives the non-blocking halves of Sem (acquire with and
// without queueing, withdraw, Release, Close) with a random operation
// sequence and checks every step against the reference model, plus the
// accounting identity, the limit and quotas, and that no admissible
// waiter stays queued. limit and classes configure the semaphore (each
// class byte is a weight and a quota); each ops byte is one operation.
func FuzzAdmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit uint8, classes, ops []byte) {
		if len(classes) == 0 || len(classes) > 4 || len(ops) > 512 {
			t.Skip()
		}
		m := &model{limit: int(limit % 5), verdict: map[int]error{}}
		cfg := make([]Class, len(classes))
		for i, b := range classes {
			cfg[i] = Class{Name: string(rune('a' + i)), Weight: int(b % 4), MaxPending: int(b/4%4) - 1}
			m.cls = append(m.cls, mclass{weight: max(int(b%4), 1), quota: max(int(b/4%4)-1, 0)})
			m.cls[i].st = ClassStats{Name: cfg[i].Name, Weight: m.cls[i].weight, MaxPending: m.cls[i].quota}
		}
		s := New(m.limit, cfg)
		closed := false
		var holders []int // class of each held slot
		var waiters []*fuzzWaiter
		clock, nextID := 0, 0

		// observe withdraws waiter k on behalf of its caller, whose context
		// ended (cause non-nil) or who read its verdict.
		observe := func(k int, cause error) {
			fw := waiters[k]
			waiters = slices.Delete(waiters, k, k+1)
			if m.drop(fw.ci, fw.id, cause) {
				m.cls[fw.ci].st.Canceled++
			}
			want := m.verdict[fw.id]
			if got := s.withdraw(fw.ci, fw.w, cause); got != want {
				t.Fatalf("waiter %d of class %d: verdict %v, model %v", fw.id, fw.ci, got, want)
			}
			if want == nil {
				holders = append(holders, fw.ci)
			}
		}

		for step, b := range ops {
			arg := int(b / 8)
			switch b % 8 {
			case 0, 1, 2: // acquire: 0 without queueing, 1-2 queueing with a deadline of arg/n ticks (0: none)
				ci, queue := arg%len(m.cls), b%8 != 0
				m.cls[ci].st.Submitted++
				w, err := s.acquire(ci, queue)
				var want error
				queued := false
				switch {
				case closed:
					m.cls[ci].st.Rejected++
					want = ErrClosed
				case m.room(ci):
					m.grant(ci)
					holders = append(holders, ci)
				case !queue:
					m.cls[ci].st.Rejected++
					want = ErrSaturated
				default:
					m.cls[ci].q = append(m.cls[ci].q, nextID)
					queued = true
				}
				if err != want || (w != nil) != queued {
					t.Fatalf("step %d: acquire(class %d, queue %v) = (queued %v, %v), model (queued %v, %v)", step, ci, queue, w != nil, err, queued, want)
				}
				if queued {
					fw := &fuzzWaiter{id: nextID, ci: ci, w: w}
					if d := arg / len(m.cls) % 4; d > 0 {
						fw.deadline = clock + d
					}
					waiters = append(waiters, fw)
					nextID++
				}
			case 3: // a caller reads its verdict or gives up
				if len(waiters) > 0 {
					observe(arg%len(waiters), context.Canceled)
				}
			case 4, 5:
				if len(holders) > 0 {
					k := arg % len(holders)
					ci := holders[k]
					holders = slices.Delete(holders, k, k+1)
					s.Release(ci)
					m.release(ci)
				}
			case 6: // the clock advances; expired contexts fire in arrival order
				clock += 1 + arg%3
				for k := 0; k < len(waiters); {
					if d := waiters[k].deadline; d > 0 && d <= clock {
						observe(k, context.DeadlineExceeded)
					} else {
						k++
					}
				}
			case 7:
				s.Close()
				closed = true
				for ci := range m.cls {
					for _, id := range slices.Clone(m.cls[ci].q) {
						m.drop(ci, id, ErrClosed)
						m.cls[ci].st.Rejected++
					}
				}
			}
			checkModel(t, step, s, m, waiters)
		}
	})
}

// checkModel compares Sem with the model after one step.
func checkModel(t *testing.T, step int, s *Sem, m *model, waiters []*fuzzWaiter) {
	t.Helper()
	if s.Held() != int64(m.held) {
		t.Fatalf("step %d: held %d, model %d", step, s.Held(), m.held)
	}
	if m.limit > 0 && s.Held() > int64(m.limit) {
		t.Fatalf("step %d: held %d over limit %d", step, s.Held(), m.limit)
	}
	for ci, got := range s.Stats() {
		mc := &m.cls[ci]
		want := mc.st
		want.Pending, want.Waiting, want.AdmissionWaitNs = int64(mc.pending), int64(len(mc.q)), got.AdmissionWaitNs
		if got != want {
			t.Fatalf("step %d: class %d stats %+v, model %+v", step, ci, got, want)
		}
		if got.Submitted != got.Admitted+got.Rejected+got.Canceled+got.Waiting {
			t.Fatalf("step %d: class %d unbalanced: %+v", step, ci, got)
		}
		if got.MaxPending > 0 && got.Pending > int64(got.MaxPending) {
			t.Fatalf("step %d: class %d holds %d over quota %d", step, ci, got.Pending, got.MaxPending)
		}
		if got.Waiting > 0 && m.room(ci) {
			t.Fatalf("step %d: class %d has %d queued waiters while a slot is free for it", step, ci, got.Waiting)
		}
	}
	for _, fw := range waiters {
		want, resolved := m.verdict[fw.id]
		if got, ok := peek(fw.w); ok != resolved || got != want {
			t.Fatalf("step %d: waiter %d verdict (%v, resolved %v), model (%v, %v)", step, fw.id, got, ok, want, resolved)
		}
	}
}
