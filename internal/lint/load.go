package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo allocates the full types.Info the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load resolves patterns (as `go list` does, e.g. "./...") from dir and
// returns every matched package parsed and type-checked. Only non-test
// GoFiles are analyzed: the usage contracts bind production code, while
// tests deliberately violate them (misuse tests, raw-channel oracles) and
// are policed by the dynamic layer instead.
//
// Dependencies — in-module and standard library alike — are type-checked
// from source through the compiler-independent importer, so loading needs
// no export data, no module proxy, and no dependencies beyond the Go
// toolchain already required to build the repo.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) > 0 {
			listed = append(listed, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// The fixture loader shares one file set and importer across calls so the
// real piper packages the fixtures import are type-checked once per test
// binary, not once per fixture.
var (
	sharedOnce sync.Once
	sharedFset *token.FileSet
	sharedImp  types.Importer
)

// CheckDir parses and type-checks the single package rooted at dir,
// recording it under importPath. It bypasses `go list`, so it loads
// directories the go tool refuses to enumerate — the analyzer fixtures
// under testdata/, which deliberately violate the contracts and must
// never build as part of the module. The caller chooses importPath
// because some analyzers key on it (nakedgo's engine-internal rule).
func CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sharedOnce.Do(func() {
		sharedFset = token.NewFileSet()
		sharedImp = importer.ForCompiler(sharedFset, "source", nil)
	})
	return checkPackage(sharedFset, sharedImp, importPath, dir, files)
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}
