package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicAlign machine-checks the two layout disciplines the hot structs
// (frame, engine, worker, the deque) maintain by hand:
//
//   - no raw 64-bit sync/atomic function (atomic.AddInt64(&x, 1) and
//     kin) is called: their operand must be 8-aligned, which 32-bit
//     (GOARCH=386) struct layout does not guarantee, and a misaligned
//     access faults at run time. The typed atomic.Int64/Uint64 wrappers
//     are always aligned, and the tree uses only them, so a ban is both
//     simpler and stricter than checking each operand's offset.
//   - a cache-line pad field must actually work: the fields on either
//     side of it must land in distinct 64-byte lines under amd64 layout,
//     otherwise the pad is silently too small and the "isolated" hot
//     words still false-share.
var AtomicAlign = &Analyzer{
	Name:  "atomicalign",
	Allow: "align",
	Doc: "ban the raw 64-bit sync/atomic functions in favour of the always-aligned atomic.Int64/Uint64 and " +
		"check that cache-line pad fields actually separate their neighbors into distinct 64-byte lines",
	Run: runAtomicAlign,
}

// atomic64Funcs are the raw sync/atomic entry points operating on 64-bit
// words through a pointer.
var atomic64Funcs = map[string]bool{
	"sync/atomic.LoadInt64":            true,
	"sync/atomic.StoreInt64":           true,
	"sync/atomic.AddInt64":             true,
	"sync/atomic.SwapInt64":            true,
	"sync/atomic.CompareAndSwapInt64":  true,
	"sync/atomic.LoadUint64":           true,
	"sync/atomic.StoreUint64":          true,
	"sync/atomic.AddUint64":            true,
	"sync/atomic.SwapUint64":           true,
	"sync/atomic.CompareAndSwapUint64": true,
}

var sizesAMD64 = types.SizesFor("gc", "amd64")

func runAtomicAlign(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if key := callKey(p.Info, n); atomic64Funcs[key] {
					p.Reportf(n.Pos(), "raw 64-bit atomic %s: its operand must be 8-aligned, which 32-bit "+
						"(GOARCH=386) struct layout does not guarantee; use atomic.Int64 or atomic.Uint64, "+
						"which are always aligned", strings.TrimPrefix(key, "sync/"))
				}
			case *ast.TypeSpec:
				checkPadding(p, n)
			}
			return true
		})
	}
}

// isPadField recognizes a deliberate cache-line pad: a byte-array field
// whose name or type says so (cacheLinePad, _pad0 [56]byte, ...).
func isPadField(f *types.Var) bool {
	named := strings.Contains(strings.ToLower(f.Name()), "pad")
	if n, ok := f.Type().(*types.Named); ok && strings.Contains(strings.ToLower(n.Obj().Name()), "pad") {
		named = true
	}
	if !named {
		return false
	}
	arr, ok := f.Type().Underlying().(*types.Array)
	if !ok {
		return false
	}
	basic, ok := arr.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte && arr.Len() >= 1
}

// checkPadding verifies, under amd64 layout, that each pad field pushes
// its following neighbor into a different 64-byte line than the one the
// preceding neighbor starts in.
func checkPadding(p *Pass, spec *ast.TypeSpec) {
	obj := p.Info.Defs[spec.Name]
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offsets := sizesAMD64.Offsetsof(fields)
	const line = 64
	for i, f := range fields {
		if !isPadField(f) || i == 0 || i == len(fields)-1 {
			continue
		}
		if isPadField(fields[i-1]) {
			continue // interior of a pad run: the run's head already checked it
		}
		// The nearest real fields on either side of (a run of) pads.
		prev := i - 1
		for prev >= 0 && isPadField(fields[prev]) {
			prev--
		}
		next := i + 1
		for next < len(fields) && isPadField(fields[next]) {
			next++
		}
		if prev < 0 || next >= len(fields) {
			continue
		}
		if offsets[prev]/line == offsets[next]/line {
			p.Reportf(spec.Name.Pos(), "pad field %s.%s is too small: %s (offset %d) and %s (offset %d) "+
				"still share a 64-byte cache line under amd64 layout, so the pad buys no false-sharing "+
				"isolation; widen it so the neighbors land in distinct lines",
				spec.Name.Name, f.Name(), fields[prev].Name(), offsets[prev], fields[next].Name(), offsets[next])
		}
	}
}
