package lint

import (
	"go/ast"
)

// NakedGo flags `go` statements that sidestep piper's goroutine
// accounting:
//
//   - inside a pipeline body, a raw goroutine escapes the iteration's
//     fork-join scope — Iter.Go registers the task with the scope so
//     Sync and pipeline teardown wait for it, a naked `go` does not, and
//     the leak storms catch the survivors only at run time;
//   - inside the engine core (piper/internal/core), every goroutine must
//     ride the worker-accounting WaitGroup that Close drains, and an
//     iter.Pull or iter.Pull2 call counts as a spawn too: it makes a
//     coroutine goroutine that lives until its stop function runs. The
//     deliberate spawn points (the worker launch and the runner pool)
//     carry //piper:allow-go annotations documenting how each is
//     accounted.
var NakedGo = &Analyzer{
	Name:  "nakedgo",
	Allow: "go",
	Doc: "flag go statements in pipeline bodies (use Iter.Go so the fork-join scope tracks the task) " +
		"and go statements or iter.Pull/iter.Pull2 coroutines in engine-internal code (goroutines must be accounted " +
		"so Close can end them); " +
		"annotate deliberate spawn points with //piper:allow-go <reason>",
	Run: runNakedGo,
}

// enginePkgPath is the package whose every goroutine must be accounted.
const enginePkgPath = "piper/internal/core"

func runNakedGo(p *Pass) {
	inEngine := p.Pkg != nil && p.Pkg.Path() == enginePkgPath
	for _, file := range p.Files {
		bodies := pipelineBodies(p, file)
		// Pipeline bodies first: a naked go there is the user-facing bug.
		inBody := map[*ast.GoStmt]bool{}
		for _, body := range bodies {
			inspectBody(body, bodies, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					inBody[g] = true
					p.Reportf(g.Pos(), "raw go statement in pipeline body: the goroutine escapes the "+
						"iteration's fork-join scope, so Sync and teardown will not wait for it; use "+
						"Iter.Go, or annotate //piper:allow-go <reason> if its lifetime is otherwise bounded")
				}
				return true
			})
		}
		if !inEngine {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !inBody[n] {
					p.Reportf(n.Pos(), "raw go statement in engine-internal code: goroutines here must be "+
						"accounted so Close can drain them; route the spawn through the worker WaitGroup "+
						"or annotate //piper:allow-go <how it is accounted>")
				}
			case *ast.CallExpr:
				if k := callKey(p.Info, n); k == "iter.Pull" || k == "iter.Pull2" {
					p.Reportf(n.Pos(), "coroutine spawn (%s) in engine-internal code: its goroutine lives "+
						"until stop is called; annotate //piper:allow-go <how it is stopped>", k)
				}
			}
			return true
		})
	}
}
