package main

import "testing"

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) < 5 {
		t.Fatalf("default selection: %d analyzers, err %v; want >=5, nil", len(all), err)
	}
	subset, err := selectAnalyzers("batchsafety, nakedgo")
	if err != nil || len(subset) != 2 {
		t.Fatalf("subset selection: %d analyzers, err %v; want 2, nil", len(subset), err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name accepted")
	}
}

// The repo must stay clean under its own analyzers — the same gate CI
// applies via `go run ./cmd/piperlint ./...`.
func TestSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	if code := run([]string{"piper/..."}); code != 0 {
		t.Fatalf("piperlint over the repo exited %d, want 0 (findings above)", code)
	}
}
