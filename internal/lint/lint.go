// Package lint is piper's static usage-contract checker: a suite of
// analyzers that enforce, at compile time, the contracts the scheduler's
// optimizations rest on — the batch-safety rule from pipe.go (bodies may
// block only through piper primitives), the arena ownership rules from
// internal/arena (every checked-out region releases on every unwind
// path), monotone stage discipline, no raw 64-bit atomics (only the
// always-aligned typed ones) with honest cache-line padding, and
// accounted goroutine spawns. The dynamic layer
// (differential fuzzer, SetDebug poisoning, leak storms) finds violations
// after they run; these analyzers find them before.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape —
// Analyzer, Pass, Reportf, analysistest-style fixtures — but is built
// entirely on the standard library (go/ast, go/types, `go list`), so the
// module stays dependency-free and the checker runs anywhere the Go
// toolchain does.
//
// Every analyzer honors a per-line escape hatch: a comment of the form
//
//	//piper:allow-<verb> <reason>
//
// on the flagged line (or the line directly above it) suppresses that
// analyzer's findings there. The reason is mandatory: an annotation
// without one does not suppress, so every exemption is documented at the
// site. Verbs: allow-block (batchsafety), allow-ref (arenaref),
// allow-dynamic-stage (stagediscipline), allow-align (atomicalign),
// allow-go (nakedgo).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Allow is the annotation verb that suppresses this analyzer's
	// findings: "//piper:allow-<Allow> <reason>" on the flagged line or
	// the line above.
	Allow string
	// Run performs the check over one package, reporting findings
	// through the Pass.
	Run func(*Pass)
}

// Analyzers is the full suite, in the order the multichecker runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{BatchSafety, ArenaRef, StageDiscipline, AtomicAlign, NakedGo}
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	allow map[string]map[int]bool // filename -> lines carrying this analyzer's allow verb
}

// Reportf records a finding at pos unless an allow annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether an annotation suppresses findings at position:
// the comment sits on the same line or the line directly above.
func (p *Pass) allowedAt(position token.Position) bool {
	lines := p.allow[position.Filename]
	return lines[position.Line] || lines[position.Line-1]
}

// allowPrefix introduces every suppression annotation.
const allowPrefix = "//piper:allow-"

// buildAllow indexes the file's suppression comments for one verb. Only
// annotations carrying a non-empty reason count: the escape hatch is
// "allow-block because X", never a bare wave-through.
func buildAllow(fset *token.FileSet, files []*ast.File, verb string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	want := allowPrefix + verb
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, want)
				if !ok {
					continue
				}
				// Exact verb match: "//piper:allow-go x" must not satisfy
				// a lookup for verb "g". The verb ends at the first space.
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue
				}
				if strings.TrimSpace(text) == "" {
					continue // no reason given: annotation is inert
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// Run applies the analyzers to every package and returns the surviving
// findings sorted by position.
//
// Test files are excluded: the contracts govern shipped code, and the
// test suite deliberately violates them — misuse tests assert the
// runtime panics, scheduler tests probe blocking with raw channels. The
// standalone loader never sees test files (`go list` GoFiles), but vet
// units include them, so the filter lives here where every mode passes
// through.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var files []*ast.File
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			files = append(files, f)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				allow:    buildAllow(pkg.Fset, files, a.Allow),
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// --- shared type-resolution helpers -----------------------------------

// funcObj resolves a call's callee to its *types.Func, seeing through
// parentheses and selectors. Returns nil for calls of function values,
// conversions, and builtins.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // explicit generic instantiation: Pipe[T](...)
		return funcObj(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return funcObj(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// funcKey names a function for table lookups: "pkgpath.Name" for
// package-level functions, "pkgpath.Recv.Name" for methods (pointer
// receivers dereferenced).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isPtrTo reports whether t is *pkgPath.name, seeing through aliases:
// piper.Iter is an alias of core.Iter, and Go 1.24 materializes it.
func isPtrTo(t types.Type, pkgPath, name string) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// callKey is funcKey for a call expression, or "" if unresolvable.
func callKey(info *types.Info, call *ast.CallExpr) string {
	return funcKey(funcObj(info, call))
}
