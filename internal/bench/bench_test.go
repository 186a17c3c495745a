package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
	tbl := Fig6Ferret(nil, []int{1, 2}, sz)
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
	tbl := Fig7Dedup(nil, []int{1, 2}, sz)
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
	tbl := Fig8X264(nil, []int{1, 2}, sz)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig9Small(t *testing.T) {
	sz := Small()
	sz.PipeFibN = 600
	tbl := Fig9PipeFib(nil, 2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(tbl.Rows))
	}
}

func TestThm12Small(t *testing.T) {
	sz := Small()
	tbl := Thm12Uniform(nil, 2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig10Small(t *testing.T) {
	sz := Small()
	tbl := Fig10Pathological(nil, 2, sz)
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
	tbl := Ablations(nil, 2, sz)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "1.00" {
		t.Fatalf("baseline slowdown should be 1.00, got %s", tbl.Rows[0][2])
	}
}

// TestCheckRegression exercises the CI benchmark guard against doctored
// reports: within the limit passes, beyond it fails, and a missing
// benchmark name is an error rather than a silent pass.
func TestCheckRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns float64) string {
		rep := JSONReport{Benchmarks: []JSONBenchmark{{Name: "X/P1", NsPerOp: ns}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100)
	okFresh := write("ok.json", 110)
	badFresh := write("bad.json", 130)
	if err := CheckRegression(okFresh, base, "X/P1", 15); err != nil {
		t.Fatalf("10%% drift within 15%% limit failed: %v", err)
	}
	if err := CheckRegression(badFresh, base, "X/P1", 15); err == nil {
		t.Fatal("30% regression passed the 15% guard")
	}
	if err := CheckRegression(okFresh, base, "Missing", 15); err == nil {
		t.Fatal("missing benchmark name passed")
	}

	// A zero or missing baseline metric must be an error, not a silent
	// pass: 100*(x-0)/0 is +Inf (or NaN for x=0), and NaN never exceeds
	// maxPct, so a garbage baseline would wave real regressions through.
	zeroBase := write("zerobase.json", 0)
	if err := CheckRegression(badFresh, zeroBase, "X/P1", 15); err == nil {
		t.Fatal("zero baseline ns_per_op passed the guard")
	}
	negBase := write("negbase.json", -5)
	if err := CheckRegression(badFresh, negBase, "X/P1", 15); err == nil {
		t.Fatal("negative baseline ns_per_op passed the guard")
	}
	// A record present under the guarded name but with the metric field
	// absent decodes as 0 — the "missing metric" shape of the same bug.
	missingMetric := filepath.Join(dir, "missingmetric.json")
	if err := os.WriteFile(missingMetric, []byte(`{"benchmarks":[{"name":"X/P1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckRegression(badFresh, missingMetric, "X/P1", 15); err == nil {
		t.Fatal("missing baseline metric passed the guard")
	}
	// And the fresh side: a bogus (non-positive) fresh reading makes the
	// drift -100%, which would also pass silently.
	zeroFresh := write("zerofresh.json", 0)
	if err := CheckRegression(zeroFresh, base, "X/P1", 15); err == nil {
		t.Fatal("zero fresh ns_per_op passed the guard")
	}
}

// TestCheckMetricRegression exercises the generalized guard on the
// counting metrics: the absolute slack must carry zero/near-zero
// baselines (an arena-backed pipeline's allocs_per_op), the percentage
// bound must still catch blowups, and garbage metrics must error.
func TestCheckMetricRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs, bytes float64) string {
		rep := JSONReport{Benchmarks: []JSONBenchmark{{Name: "X/P1", NsPerOp: 100, AllocsPerOp: allocs, BytesPerOp: bytes}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 30, 50000)
	okFresh := write("ok.json", 40, 55000)
	badFresh := write("bad.json", 700, 4e6)
	if err := CheckMetricRegression(okFresh, base, "X/P1", "allocs_per_op", 15, 16); err != nil {
		t.Fatalf("within percentage+slack failed: %v", err)
	}
	if err := CheckMetricRegression(badFresh, base, "X/P1", "allocs_per_op", 15, 16); err == nil {
		t.Fatal("20× alloc blowup passed the guard")
	}
	if err := CheckMetricRegression(badFresh, base, "X/P1", "bytes_per_op", 15, 4096); err == nil {
		t.Fatal("80× bytes blowup passed the guard")
	}
	if err := CheckMetricRegression(okFresh, base, "X/P1", "parks_per_op", 15, 1); err == nil {
		t.Fatal("unknown metric name passed")
	}

	// Zero baselines: legitimate for counters when slack supplies the
	// tolerance, an error when it does not (a pure percentage bound on a
	// zero baseline tolerates nothing and flaps on warm-up noise).
	zeroBase := write("zerobase.json", 0, 0)
	zeroFresh := write("zerofresh.json", 0, 0)
	smallFresh := write("smallfresh.json", 10, 1000)
	if err := CheckMetricRegression(zeroFresh, zeroBase, "X/P1", "allocs_per_op", 15, 16); err != nil {
		t.Fatalf("zero fresh vs zero baseline with slack failed: %v", err)
	}
	if err := CheckMetricRegression(smallFresh, zeroBase, "X/P1", "allocs_per_op", 15, 16); err != nil {
		t.Fatalf("within-slack drift off a zero baseline failed: %v", err)
	}
	if err := CheckMetricRegression(smallFresh, zeroBase, "X/P1", "allocs_per_op", 15, 0); err == nil {
		t.Fatal("zero baseline with zero slack must refuse to guard")
	}
	if err := CheckMetricRegression(smallFresh, zeroBase, "X/P1", "bytes_per_op", 15, 16); err == nil {
		t.Fatal("1000 fresh bytes over a zero baseline with slack 16 passed")
	}
	// ns_per_op keeps its stricter positivity contract through the
	// generalized path: a decoded-as-zero row is a missing row, not a win.
	zeroNs := filepath.Join(dir, "zerons.json")
	if err := os.WriteFile(zeroNs, []byte(`{"benchmarks":[{"name":"X/P1","allocs_per_op":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckMetricRegression(okFresh, zeroNs, "X/P1", "ns_per_op", 15, 5); err == nil {
		t.Fatal("zero baseline ns_per_op passed the generalized guard")
	}
}

// TestGuardMissingRowListsAvailable pins the guard's missing-row contract
// in both directions: when the guarded name is absent from the baseline
// report or from the fresh report, the error must name the rows that
// report does contain — the same affordance the suite's zero-match filter
// error gives — so a renamed guard entry against a stale baseline is
// diagnosable from the failure alone.
func TestGuardMissingRowListsAvailable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...string) string {
		rep := JSONReport{}
		for _, r := range rows {
			rep.Benchmarks = append(rep.Benchmarks, JSONBenchmark{Name: r, NsPerOp: 100})
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := write("full.json", "X/P1", "X/P1/CompilePlans=false", "Y/P2")
	stale := write("stale.json", "X/P1", "Y/P2")
	empty := write("empty.json")

	// Direction 1: the row exists in the fresh run but the baseline
	// predates it — the error must blame the baseline path and list the
	// baseline's rows.
	err := CheckMetricRegression(full, stale, "X/P1/CompilePlans=false", "ns_per_op", 15, 0)
	if err == nil {
		t.Fatal("row missing from baseline passed the guard")
	}
	for _, want := range []string{"X/P1/CompilePlans=false", "stale.json", "available", "X/P1", "Y/P2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("baseline-direction error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "full.json") {
		t.Errorf("baseline-direction error %q blames the fresh report", err)
	}

	// Direction 2: the baseline has the row but the fresh run (e.g. run
	// with a narrower -only filter) does not — the error must blame the
	// fresh path instead.
	err = CheckRegression(stale, full, "X/P1/CompilePlans=false", 15)
	if err == nil {
		t.Fatal("row missing from fresh report passed the guard")
	}
	for _, want := range []string{"X/P1/CompilePlans=false", "stale.json", "available", "X/P1", "Y/P2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fresh-direction error %q does not mention %q", err, want)
		}
	}

	// A rowless report says so explicitly rather than emitting a dangling
	// "available:" with nothing after it.
	err = CheckMetricRegression(full, empty, "X/P1", "ns_per_op", 15, 0)
	if err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Errorf("empty-report error = %v, want a no-rows diagnosis", err)
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
	tbl := ArenaAblation(nil, 2, sz)
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

// TestJSONSuiteFilterMatchesNothing pins the -only contract: a filter
// that selects zero rows must error (naming the available rows) instead
// of silently writing an empty report, and WriteJSONFile must not leave a
// truncated artifact behind.
func TestJSONSuiteFilterMatchesNothing(t *testing.T) {
	var buf bytes.Buffer
	err := JSONSuite(&buf, SuiteConfig{Filters: []string{"NoSuchBenchmarkRow"}})
	if err == nil {
		t.Fatal("zero-match filter produced no error")
	}
	for _, want := range []string{"NoSuchBenchmarkRow", "SerialOverheadPerIter/P1", "BatchedSerialOverhead/P1", elasticRowName} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSONFile(path, SuiteConfig{Filters: []string{"NoSuchBenchmarkRow"}}); err == nil {
		t.Fatal("WriteJSONFile accepted a zero-match filter")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("zero-match filter left %s behind", path)
	}
}

// TestGrainAblationSmall renders the grain table at a tiny size.
func TestGrainAblationSmall(t *testing.T) {
	sz := Small()
	sz.DedupBytes = 128 << 10
	tbl := GrainAblation(nil, 2, sz)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want Grain(1)/Grain(4)/Grain(16)/Grain(64)/adaptive", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "Grain(1)" || tbl.Rows[4][0] != "adaptive" {
		t.Fatalf("unexpected config column: %v", tbl.Rows)
	}
	if got := len(tbl.Rows[0]); got != len(tbl.Header) {
		t.Fatalf("row has %d cells for %d columns", got, len(tbl.Header))
	}
}

func TestElasticitySmall(t *testing.T) {
	sz := Small()
	tbl := Elasticity(nil, 2, sz)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want fixed + elastic", len(tbl.Rows))
	}
	if tbl.Rows[1][2] == "0" {
		t.Errorf("elastic config recorded no worker spawns: %v", tbl.Rows[1])
	}
	if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "scale-up latency") {
		t.Errorf("missing scale-up latency note: %v", tbl.Notes)
	}
}

func TestElasticScaleUpRow(t *testing.T) {
	row := elasticScaleUpRow()
	if row.Name != elasticRowName {
		t.Fatalf("row name = %q", row.Name)
	}
	if !(row.NsPerOp > 0) {
		t.Fatalf("scale-up latency = %v, want > 0", row.NsPerOp)
	}
}

func TestAdaptiveThrottleSmall(t *testing.T) {
	sz := Small()
	tbl := AdaptiveThrottle(nil, 2, sz)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "fixed K=4P" && row[1] != "adaptive" {
			t.Fatalf("unexpected policy %q", row[1])
		}
	}
}
