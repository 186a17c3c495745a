// Package cmd_test builds every command binary and exercises it end to
// end — the CLI contract tests.
package cmd_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles ./cmd/<name> into dir and returns the binary path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
			filepath.Base(bin), args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestDedupCmdRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "dedup")

	input := filepath.Join(dir, "in.txt")
	data := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog\n"), 4000)
	if err := os.WriteFile(input, data, 0o644); err != nil {
		t.Fatal(err)
	}
	arch := filepath.Join(dir, "in.pdar")
	restored := filepath.Join(dir, "out.txt")

	run(t, bin, "-mode", "compress", "-in", input, "-out", arch, "-pipeline", "piper", "-p", "2")
	run(t, bin, "-mode", "restore", "-in", arch, "-out", restored, "-p", "2")

	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cmd round trip mismatch")
	}
	ai, err := os.Stat(arch)
	if err != nil {
		t.Fatal(err)
	}
	if ai.Size() >= int64(len(data))/10 {
		t.Fatalf("highly repetitive input compressed to only %d of %d bytes", ai.Size(), len(data))
	}
}

// TestDedupCmdRejectsHostileArchive: an archive whose recorded lengths lie
// (a compressed length that wraps int, an end total past 2^63) is an
// error on exit 1 under both readers, never a panic; the message carries
// one "dedup:" prefix, and the failed run leaves no -out file.
func TestDedupCmdRejectsHostileArchive(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "dedup")
	// Magic, then a unique record of rawLen 5 or the end record.
	wrap := binary.AppendUvarint([]byte("PDAR1\x00\x00\x05"), math.MaxUint64)
	wrap = append(append(wrap, make([]byte, 28)...), 0xFF, 5)
	huge := binary.AppendUvarint([]byte("PDAR1\x00\xFF"), 1<<63+5)
	for name, archive := range map[string][]byte{"wrapping compLen": wrap, "huge total": huge} {
		in := filepath.Join(dir, "hostile.pdar")
		if err := os.WriteFile(in, archive, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, pipeline := range []string{"piper", "serial"} {
			out := filepath.Join(dir, "out")
			if err := os.RemoveAll(out); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(bin, "-mode", "restore", "-pipeline", pipeline, "-p", "2",
				"-in", in, "-out", out)
			cmd.Stderr = &stderr
			err := cmd.Run()
			code := -1
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			}
			msg := stderr.String()
			if code != 1 || !strings.HasPrefix(msg, "dedup:") || strings.Contains(msg, "dedup: dedup:") ||
				strings.Contains(msg, "panic:") {
				t.Errorf("%s, -pipeline %s: exit %d (%v), want 1 with one dedup: prefix; stderr:\n%s",
					name, pipeline, code, err, msg)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%s, -pipeline %s: failed run left %s behind (stat: %v)", name, pipeline, out, err)
			}
		}
	}
}

func TestX264SimCmdPipelinesAgree(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "x264sim")
	args := []string{"-w", "128", "-h", "64", "-frames", "16"}
	outSerial, _ := run(t, bin, append(args, "-pipeline", "serial")...)
	outPiper, _ := run(t, bin, append(args, "-pipeline", "piper", "-p", "2")...)
	outThreads, _ := run(t, bin, append(args, "-pipeline", "pthreads", "-p", "2")...)
	sum := func(out string) string {
		for _, f := range strings.Fields(out) {
			if strings.HasPrefix(f, "checksum=") {
				return f
			}
		}
		t.Fatalf("no checksum in output: %s", out)
		return ""
	}
	if sum(outSerial) != sum(outPiper) || sum(outSerial) != sum(outThreads) {
		t.Fatalf("checksums disagree:\nserial: %s\npiper: %s\npthreads: %s",
			outSerial, outPiper, outThreads)
	}
	if !strings.Contains(outPiper, "violations=0") {
		t.Fatalf("piper run reported violations: %s", outPiper)
	}
}

func TestDagvizCmdEmitsDOT(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "dagviz")
	for _, kind := range []string{"ferret", "dedup", "x264", "pipefib", "pathological", "uniform"} {
		stdout, stderr := run(t, bin, "-dag", kind, "-n", "4", "-k", "2")
		if !strings.Contains(stdout, "digraph pipeline") {
			t.Fatalf("%s: no DOT output", kind)
		}
		if !strings.Contains(stderr, "parallelism=") {
			t.Fatalf("%s: no stats on stderr", kind)
		}
	}
}

func TestPipefibCmd(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "pipefib")
	stdout, _ := run(t, bin, "-n", "30", "-p", "2", "-print")
	if !strings.Contains(stdout, "832040") { // F(30)
		t.Fatalf("F(30) missing from output: %s", stdout)
	}
}

func TestFerretCmd(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "ferret")
	stdout, _ := run(t, bin, "-corpus", "60", "-queries", "4", "-topk", "2", "-p", "2", "-imgsize", "32")
	lines := strings.Count(strings.TrimSpace(stdout), "\n") + 1
	if lines != 4 {
		t.Fatalf("expected 4 query lines, got %d:\n%s", lines, stdout)
	}
	if !strings.Contains(stdout, "query ") {
		t.Fatalf("unexpected output: %s", stdout)
	}
}

func TestPiperbenchCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("piperbench takes seconds even at small size")
	}
	dir := t.TempDir()
	bin := build(t, dir, "piperbench")
	stdout, _ := run(t, bin, "-experiment", "thm12", "-size", "small", "-pmax", "2")
	if !strings.Contains(stdout, "Theorem 12") {
		t.Fatalf("missing table title:\n%s", stdout)
	}
}

func TestPipeserveCmd(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "pipeserve")
	stdout, _ := run(t, bin,
		"-p", "2", "-tenants", "4", "-requests", "300", "-cancel", "0.3", "-work", "200")
	// run fails the test on a non-zero exit, which pipeserve returns for
	// unexpected errors, accounting mismatches, or an undrained engine;
	// assert the summary markers explicitly as well.
	for _, want := range []string{"failures=0", "drained=true", "300 requests"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("missing %q in pipeserve output:\n%s", want, stdout)
		}
	}
}

func TestPipeserveQoS(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "pipeserve")
	// Noisy-neighbour scenario at a small size: the quiet tenant is
	// measured solo, then against a bursty flood through a low-weight
	// quota-capped class. pipeserve exits nonzero (failing run) unless
	// the quiet p99 stays inside the bound, both engines drain, and every
	// class's admission counters reconcile; assert the markers too.
	stdout, _ := run(t, bin,
		"-qos", "-p", "2", "-maxpending", "4", "-requests", "600", "-work", "400", "-seed", "7")
	for _, want := range []string{"failures=0", "drained=true", "accounting=true", "qos=true"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("missing %q in pipeserve qos output:\n%s", want, stdout)
		}
	}
}

func TestPipeserveBurst(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "pipeserve")
	// Bursty multi-tenant traffic with quiet gaps (the workers park between
	// waves) against a small admission budget under the blocking policy.
	// The driver exits nonzero unless every request was accounted for and
	// the engine drained; SubmitWait must admit every request.
	stdout, _ := run(t, bin,
		"-p", "2", "-burst", "3", "-idle", "30ms", "-maxpending", "8", "-waitadmit",
		"-tenants", "4", "-requests", "400", "-cancel", "0.1", "-work", "300")
	for _, want := range []string{"failures=0", "rejected=0", "drained=true"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("missing %q in pipeserve burst output:\n%s", want, stdout)
		}
	}
}
