package lint

import (
	"go/ast"
	"go/types"
)

// isPipelineEntry reports whether call hands the scheduler pipeline code:
// whether one of its arguments is a function whose first parameter is
// *core.Iter. Every entry point takes its body that way — Pipe, Submit,
// SubmitWaitTenant, Iter.PipeWhile and the rest — so a new one is covered
// with no table to keep in step. Each function-literal argument of such a
// call runs inside pipeline iterations — the cond/next closure is the
// serial stage-0 prefix, the body closure is the iteration — so both are
// bound by the batch-safety contract.
func isPipelineEntry(p *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := p.Info.TypeOf(arg); t != nil {
			if sig, ok := t.Underlying().(*types.Signature); ok && sig.Params().Len() > 0 &&
				isPtrTo(sig.Params().At(0).Type(), enginePkgPath, "Iter") {
				return true
			}
		}
	}
	return false
}

// pipelineBody is one closure the scheduler will execute inside
// iterations: a function literal passed (directly, or through a local
// variable) to a pipeline entry point.
type pipelineBody struct {
	lit  *ast.FuncLit
	call *ast.CallExpr // the registering call
}

// pipelineBodies finds every pipeline closure in the file. A closure
// passed by name — `body := func(it *piper.Iter) {...}; eng.Submit(ctx,
// cond, body)` — resolves through the variable's defining assignment, so
// the serving-driver idiom is covered, not just inline literals.
func pipelineBodies(p *Pass, file *ast.File) []pipelineBody {
	// Map each local function-valued variable to its defining literal.
	lits := map[any]*ast.FuncLit{} // types.Object -> literal
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if lit, ok := st.Rhs[i].(*ast.FuncLit); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						lits[obj] = lit
					} else if obj := p.Info.Uses[id]; obj != nil {
						lits[obj] = lit
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if i >= len(st.Values) {
					break
				}
				if lit, ok := st.Values[i].(*ast.FuncLit); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						lits[obj] = lit
					}
				}
			}
		}
		return true
	})

	var bodies []pipelineBody
	seen := map[*ast.FuncLit]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPipelineEntry(p, call) {
			return true
		}
		for _, arg := range call.Args {
			var lit *ast.FuncLit
			switch a := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				lit = a
			case *ast.Ident:
				if obj := p.Info.Uses[a]; obj != nil {
					lit = lits[obj]
				}
			}
			if lit != nil && !seen[lit] {
				seen[lit] = true
				bodies = append(bodies, pipelineBody{lit: lit, call: call})
			}
		}
		return true
	})
	return bodies
}

// inspectBody walks a pipeline closure, descending into nested function
// literals (deferred cleanups, Iter.Go tasks — they run inside the
// iteration too) but not into closures that are pipeline bodies in their
// own right: those are visited separately through `all`, so descending
// here would double-report their findings.
func inspectBody(body pipelineBody, all []pipelineBody, visit func(ast.Node) bool) {
	skip := map[*ast.FuncLit]bool{}
	for _, other := range all {
		if other.lit != body.lit {
			skip[other.lit] = true
		}
	}
	ast.Inspect(body.lit.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		return visit(n)
	})
}
