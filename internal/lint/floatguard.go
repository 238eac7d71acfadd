package lint

import (
	"go/ast"
	"go/types"
)

// Floatguard protects the dist wire boundary's cannot-carry-non-finite
// guarantee. The binary session codec, which carries every task and result,
// rejects NaN and ±Inf on encode AND decode through its bit-level helpers,
// and the coordinator validates requests up front; a new code path that
// bit-casts a float64 straight onto the wire would silently reopen the hole.
//
// Two rules, scoped to package dist:
//
//   - math.Float64bits / math.Float64frombits may only be called inside a
//     function marked //optlint:floatboundary — the audited helpers
//     (appendF64, (*binReader).f64, finite) through which every wire float
//     flows;
//   - a function marked //optlint:floatboundary must actually reject
//     non-finite values: its body must call both math.IsNaN and
//     math.IsInf, or delegate to another marked helper.
var Floatguard = &Analyzer{
	Name: "floatguard",
	Doc:  "float64 bit-casts in the dist codec only inside //optlint:floatboundary helpers that reject non-finite values",
	Run:  runFloatguard,
}

func runFloatguard(p *Pass) error {
	if p.Types.Name() != "dist" {
		return nil
	}
	// First pass: collect the function objects marked as boundaries, so
	// delegation between helpers is recognized.
	boundaries := map[types.Object]bool{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !p.FuncMarked(fd, VerbFloatBoundary) {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				boundaries[obj] = true
			}
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if boundaries[p.Info.Defs[fd.Name]] {
				checkBoundaryRejects(p, fd, boundaries)
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeFunc(p.Info, call)
				if isPkgFunc(obj, "math", "Float64bits") || isPkgFunc(obj, "math", "Float64frombits") {
					p.Reportf(call.Pos(), "math.%s outside a //optlint:floatboundary helper: float64 bits crossing a dist frame must pass non-finite rejection (route through appendF64 / binReader.f64)", obj.Name())
				}
				return true
			})
		}
	}
	return nil
}

// checkBoundaryRejects verifies a marked helper really rejects non-finite
// values: both math.IsNaN and math.IsInf appear in its body, or it calls
// another marked helper that does.
func checkBoundaryRejects(p *Pass, fd *ast.FuncDecl, boundaries map[types.Object]bool) {
	var isNaN, isInf, delegates bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeFunc(p.Info, call)
		switch {
		case isPkgFunc(obj, "math", "IsNaN"):
			isNaN = true
		case isPkgFunc(obj, "math", "IsInf"):
			isInf = true
		case obj != nil && boundaries[obj] && p.Info.Defs[fd.Name] != obj:
			delegates = true
		}
		return true
	})
	if !(isNaN && isInf) && !delegates {
		p.Reportf(fd.Name.Pos(), "function is marked //optlint:floatboundary but performs no non-finite rejection (needs math.IsNaN and math.IsInf, or a call to another boundary helper)")
	}
}
