package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment runners are exercised at Small scale so the harness
// itself is tested: every table must render with the right shape and
// sane values.

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "t", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "hello")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"t\n", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig6Small(t *testing.T) {
	sz := Small()
	sz.FerretCorpus, sz.FerretQueries = 60, 20
	tbl := Ferret(sz).Table([]int{1, 2}, sz.Reps)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[1][0] != "2" {
		t.Fatalf("P column wrong: %v", tbl.Rows)
	}
}

func TestFig7Small(t *testing.T) {
	sz := Small()
	sz.DedupBytes = 256 << 10
	tbl := Dedup(sz).Table([]int{1, 2}, sz.Reps)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "parallelism") {
		t.Fatalf("missing parallelism note: %v", tbl.Notes)
	}
}

func TestFig8Small(t *testing.T) {
	sz := Small()
	sz.X264Frames = 20
	tbl := X264(sz).Table([]int{1, 2}, sz.Reps)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig9Small(t *testing.T) {
	sz := Small()
	sz.PipeFibN = 600
	tbl := Fig9PipeFib(2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(tbl.Rows))
	}
}

func TestThm12Small(t *testing.T) {
	sz := Small()
	tbl := Thm12Uniform(2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig10Small(t *testing.T) {
	sz := Small()
	tbl := Fig10Pathological(2, sz)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The largest window must never show fewer live iterations than
	// allowed by the smallest.
	if tbl.Rows[0][3] == "" {
		t.Fatal("missing max-live column")
	}
}

func TestAblationsSmall(t *testing.T) {
	sz := Small()
	sz.PipeFibN = 800
	tbl := Ablations(2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want baseline + the paper's three switches", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "1.00" {
		t.Fatalf("baseline slowdown should be 1.00, got %s", tbl.Rows[0][2])
	}
}

// TestArenaAblationSmall renders the arena on/off table at a tiny size
// and pins the recycling contract: the enabled rows must recycle bytes
// and satisfy most checkouts from the pools, the disabled rows must
// recycle nothing and miss every checkout. The on-row miss bound is
// misses < gets rather than exactly zero: the warm-up run primes the
// pools with its own peak concurrent demand — a near-serial warm pass
// creates only a handful of distinct regions through sequential reuse —
// and the measured run's iteration overlap can legitimately peak at the
// full throttle window, allocating one fresh region per extra
// simultaneous checkout. A broken recycler is still unmissable — it
// shows misses == gets, like the disabled rows.
func TestArenaAblationSmall(t *testing.T) {
	sz := Small()
	sz.DedupBytes = 128 << 10
	tbl := ArenaAblation(2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want on/off × dedup/lz", len(tbl.Rows))
	}
	atoi := func(s string) int {
		n := 0
		for _, c := range s {
			if c < '0' || c > '9' {
				t.Fatalf("non-numeric counter %q", s)
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	for _, row := range tbl.Rows {
		gets, misses, recycled := row[5], row[6], row[7]
		switch row[0] {
		case "arena on":
			if g, m := atoi(gets), atoi(misses); m >= g {
				t.Errorf("%s/%s: steady-state misses = %d of %d gets, want strictly fewer (a disabled arena misses every get)", row[0], row[1], m, g)
			}
			if recycled == "0.0" {
				t.Errorf("%s/%s: recycled nothing", row[0], row[1])
			}
		case "arena off":
			if misses != gets {
				t.Errorf("%s/%s: misses %s != gets %s on a disabled arena", row[0], row[1], misses, gets)
			}
			if recycled != "0.0" {
				t.Errorf("%s/%s: disabled arena recycled %s MB", row[0], row[1], recycled)
			}
		default:
			t.Errorf("unexpected config %q", row[0])
		}
	}
}
