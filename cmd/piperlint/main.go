// Piperlint is the multichecker for piper's usage-contract analyzers
// (internal/lint): batchsafety, arenaref, stagediscipline, atomicalign,
// nakedgo.
//
// Standalone, it loads package patterns like the go tool and exits
// nonzero if any analyzer reports a finding:
//
//	go run ./cmd/piperlint ./...
//	piperlint -only batchsafety,nakedgo ./internal/lz
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"piper/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("piperlint", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: piperlint [-only a,b] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "piperlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("piperlint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
