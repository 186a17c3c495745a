package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaRef enforces the internal/arena ownership rules intra-procedurally:
// a function that checks a region out of the arena (any call returning
// *arena.Ref bound to a local variable) must release it through a
// deferred Release — a straight-line Release leaks the region when a
// panic or cancellation unwinds the body between Get and Release, which
// is exactly the bug class the leak storms hunt dynamically. The analyzer
// also flags straight-line use of a ref after its Release.
//
// Refs whose ownership leaves the function — returned, stored in a field
// or container, aliased, retained for a hand-off, passed to another
// function, or captured by a non-deferred closure — are skipped:
// cross-procedure ownership is the dynamic layer's job (SetDebug
// poisoning, LiveArenaBytes drain checks). Read-only accessors (Bytes,
// Refs, the B field, arena.View) do not transfer ownership, so they
// neither exempt a ref nor count as a release.
var ArenaRef = &Analyzer{
	Name:  "arenaref",
	Allow: "ref",
	Doc: "require every locally-owned arena Ref to be released via defer (a non-deferred Release " +
		"leaks on panic/cancel unwinding) and flag use of a Ref after Release",
	Run: runArenaRef,
}

const arenaPkgPath = "piper/internal/arena"

// producesRef reports whether call's result is a single *arena.Ref.
func producesRef(info *types.Info, call *ast.CallExpr) bool {
	return isPtrTo(info.TypeOf(call), arenaPkgPath, "Ref")
}

func runArenaRef(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkRefOwners(p, fn.Body)
				}
			case *ast.FuncLit:
				checkRefOwners(p, fn.Body)
			}
			return true
		})
	}
}

// litRange classifies one function literal nested in the body under
// analysis.
type litRange struct {
	lit      *ast.FuncLit
	deferred bool // the literal is the operand of `defer func(){...}()`
}

// refState accumulates what the function does with one local ref.
type refState struct {
	id       *ast.Ident    // defining occurrence
	get      *ast.CallExpr // producing call, for reporting
	escapes  bool
	deferred bool            // a deferred Release covers every unwind path
	releases []*ast.CallExpr // straight-line Release call sites
}

// checkRefOwners runs the ownership check over one function body. Nested
// function literals get their own checkRefOwners visit for refs they bind
// themselves; here they matter only as capture sites for this function's
// refs — a deferred closure may carry the Release, any other closure
// capturing a ref makes its lifetime non-lexical and exempts it.
func checkRefOwners(p *Pass, body *ast.BlockStmt) {
	// Nested literal ranges, with top-level deferred closures identified.
	var lits []litRange
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, litRange{lit: lit})
		}
		if d, ok := n.(*ast.DeferStmt); ok && nestedLitAt(lits, d.Pos()) == nil {
			if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				lits = append(lits, litRange{lit: lit, deferred: true})
			}
		}
		return true
	})
	// Deduplicate: the deferred-literal entry wins over the plain one.
	byLit := map[*ast.FuncLit]bool{}
	for _, lr := range lits {
		if lr.deferred {
			byLit[lr.lit] = true
		}
	}
	inNested := func(pos token.Pos) *litRange { return nestedLitAt(lits, pos) }
	isDeferredLit := func(lit *ast.FuncLit) bool { return byLit[lit] }

	// 1. Owners: root-level `v := <call returning *arena.Ref>`.
	owners := map[types.Object]*refState{}
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr)
			if !ok || !producesRef(p.Info, call) {
				continue
			}
			if inNested(id.Pos()) != nil {
				continue // bound inside a closure: that closure's own visit handles it
			}
			if obj := p.Info.Defs[id]; obj != nil {
				owners[obj] = &refState{id: id, get: call}
			} else if obj := p.Info.Uses[id]; obj != nil {
				// Plain `=` rebinding an existing variable: re-checkout
				// into the same name. Track only the first binding; a
				// rebound owner is beyond straight-line analysis.
				if owners[obj] == nil {
					owners[obj] = &refState{id: id, get: call, escapes: true}
				} else {
					owners[obj].escapes = true
				}
			}
		}
		return true
	})
	if len(owners) == 0 {
		return
	}
	ownerOf := func(e ast.Expr) *refState {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := p.Info.Uses[id]; obj != nil {
			return owners[obj]
		}
		return nil
	}

	// 2. Mark the safe uses; classify releases as deferred or not.
	safe := map[*ast.Ident]bool{}
	markSafe := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			safe[id] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer v.Release()
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if s := ownerOf(sel.X); s != nil {
					s.deferred = true
					markSafe(sel.X)
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s := ownerOf(sel.X); s != nil {
					switch sel.Sel.Name {
					case "Release":
						markSafe(sel.X)
						lr := inNested(n.Pos())
						switch {
						case lr == nil:
							// Straight-line release — unless it is the
							// direct operand of a defer, which the
							// DeferStmt case above already marked.
							if !s.deferred || !isDeferCall(body, n) {
								s.releases = append(s.releases, n)
							}
						case isDeferredLit(lr.lit):
							s.deferred = true // release inside defer func(){...}()
						default:
							s.escapes = true // released by some other closure
						}
					case "Bytes", "Refs", "B":
						markSafe(sel.X)
					case "Retain":
						// Retain is the hand-off half of the ownership
						// protocol: the extra reference travels to another
						// stage, so lexical pairing no longer applies.
						markSafe(sel.X)
						s.escapes = true
					}
				}
			}
			// A ref passed to arena.View is a read, not a hand-off.
			if key := callKey(p.Info, n); key == arenaPkgPath+".View" {
				for _, arg := range n.Args {
					if s := ownerOf(arg); s != nil {
						markSafe(arg)
					}
				}
			}
		case *ast.SelectorExpr:
			// v.B reads (and v.B = ... writes) touch the payload slice
			// header, not the reference count.
			if sel := n; sel.Sel.Name == "B" {
				if s := ownerOf(sel.X); s != nil {
					markSafe(sel.X)
				}
			}
		}
		return true
	})

	// 3. Any remaining use is an escape: returned, stored, aliased,
	// passed along, sent, address-taken, compared, or captured.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || safe[id] {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		if s := owners[obj]; s != nil && id != s.id {
			// Uses inside a deferred closure beyond Release/accessors and
			// nil checks are still escapes; a bare `v != nil` guard inside
			// the defer is the one common benign pattern, which the nil
			// comparison below whitelists.
			if !isNilCheckUse(body, id) {
				s.escapes = true
			}
		}
		return true
	})

	// 4. Verdicts.
	for _, s := range owners {
		if s.escapes {
			continue
		}
		switch {
		case s.deferred:
			// Covered on every unwind path.
		case len(s.releases) > 0:
			for _, rel := range s.releases {
				p.Reportf(rel.Pos(), "arena ref %s released without defer: a panic or cancellation "+
					"unwinding between Get and Release leaks the region (ownership rules, "+
					"internal/arena); use defer %s.Release()", s.id.Name, s.id.Name)
			}
		default:
			p.Reportf(s.get.Pos(), "arena ref %s is never released in this function and never "+
				"escapes it: add defer %s.Release()", s.id.Name, s.id.Name)
		}
	}

	// 5. Straight-line use-after-release: within one statement list, any
	// use of a ref after the statement that released it.
	checkUseAfterRelease(p, body, owners)
}

// nestedLitAt returns the literal range containing pos, if any.
func nestedLitAt(lits []litRange, pos token.Pos) *litRange {
	var best *litRange
	for i := range lits {
		lr := &lits[i]
		if lr.lit.Pos() < pos && pos < lr.lit.End() {
			if best == nil || lr.lit.Pos() > best.lit.Pos() {
				best = lr // innermost
			}
		}
	}
	return best
}

// isDeferCall reports whether call appears as the direct operand of a
// defer statement in body.
func isDeferCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			found = true
		}
		return !found
	})
	return found
}

// isNilCheckUse reports whether the identifier's only role is a nil
// comparison (`if v != nil { ... }`), the benign guard inside deferred
// cleanups.
func isNilCheckUse(body *ast.BlockStmt, id *ast.Ident) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if ast.Unparen(side) == id {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkUseAfterRelease reports straight-line uses after a non-deferred
// Release in the same statement list.
func checkUseAfterRelease(p *Pass, body *ast.BlockStmt, owners map[types.Object]*refState) {
	released := map[*ast.CallExpr]*refState{}
	for _, s := range owners {
		for _, rel := range s.releases {
			released[rel] = s
		}
	}
	if len(released) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		live := map[*refState]bool{}
		for _, st := range block.List {
			// Uses before the releasing statement (or in it) are fine.
			for s := range live {
				s := s
				ast.Inspect(st, func(u ast.Node) bool {
					id, ok := u.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := p.Info.Uses[id]; obj != nil && owners[obj] == s {
						p.Reportf(id.Pos(), "use of arena ref %s after Release: the region may "+
							"already be recycled (SetDebug poisons it); restructure so the Release "+
							"is last", s.id.Name)
						live[s] = false
					}
					return true
				})
			}
			for s, ok := range live {
				if !ok {
					delete(live, s) // one report per release site
				}
			}
			if es, ok := st.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if s := released[call]; s != nil {
						live[s] = true
					}
				}
			}
		}
		return true
	})
}
