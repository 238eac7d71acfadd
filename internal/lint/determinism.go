package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the repo's core reproducibility contract in
// result-affecting packages: every sampling increment is a pure function of
// (stream seed, draw index), so nothing on a result path may read the wall
// clock, draw from the process-global RNG, or let randomized map iteration
// order leak into state.
//
// Three constructs are reported:
//
//   - calls (or references) to time.Now, time.Since, time.Until;
//   - references to math/rand (or math/rand/v2) package-level functions,
//     which share the auto-seeded global source — constructing seeded
//     streams stays legal, and rand.New(noise.NewSource(seed)) is the
//     sanctioned way to (the stdlib generator bit for bit, seeded in O(1));
//   - `range` over a map whose body writes state declared outside the
//     loop, or draws from a *rand.Rand declared outside it: iteration
//     order is deliberately randomized by the runtime, so such writes, and
//     which element gets which draw, differ run to run.
//
// Timing/observability code that legitimately reads clocks (metrics,
// heartbeats) carries a line-scoped //optlint:nondeterministic-ok directive
// with a justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, the global RNG and map-order-dependent writes in result-affecting packages",
	Run:  runDeterminism,
}

// resultPackages names the packages whose code feeds optimization results.
// Everything else (obs, jobs plumbing, CLIs, experiments) is out of scope:
// their clocks and map walks cannot perturb a sample.
var resultPackages = map[string]bool{
	"core":  true,
	"sim":   true,
	"noise": true,
	"sched": true,
	"dist":  true,
	"pso":   true,
	"stats": true,
	"mw":    true,
	"water": true,
	"md":    true,
}

// wallClockFuncs are the time package reads that break run-to-run
// reproducibility. Timers and tickers are not listed: they schedule work but
// do not feed values into results.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandCtors are the math/rand(/v2) entry points that build private,
// seeded generators — the deterministic pattern this repo requires.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) error {
	if !resultPackages[p.Types.Name()] {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := p.Info.Uses[n.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] && !p.Suppressed(n.Pos(), VerbNondeterministicOK) {
						p.Reportf(n.Pos(), "time.%s in result-affecting package %s: wall-clock values must never reach a sample; if this is metrics/heartbeat plumbing, annotate //optlint:nondeterministic-ok with a justification", fn.Name(), p.Types.Name())
					}
				case "math/rand", "math/rand/v2":
					// Methods on *rand.Rand have a receiver; only
					// package-level functions share the global source.
					if fn.Signature().Recv() == nil && !seededRandCtors[fn.Name()] && !p.Suppressed(n.Pos(), VerbNondeterministicOK) {
						p.Reportf(n.Pos(), "rand.%s uses the process-global RNG: results must come from seeded streams (rand.New(noise.NewSource(seed)))", fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(p, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports a map-range statement whose body writes state
// declared outside the loop. The check is conservative and syntactic about
// the write targets (assignments, ++/--, channel sends, and delete on an
// outer map). Of the mutation through calls, only the draws are tracked: a
// non-loop-local generator (see isRandPtr) passed as an argument or used as
// a method receiver advances one stream in map order.
func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if p.Suppressed(rng.Pos(), VerbNondeterministicOK) {
		return
	}
	// outer reports whether the lvalue's base identifier was declared
	// outside the range statement (including params, receivers and
	// package-level state).
	outer := func(e ast.Expr) *ast.Ident {
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		v, ok := p.Info.ObjectOf(root).(*types.Var)
		if !ok {
			return nil
		}
		if v.Pos() < rng.Pos() || v.Pos() > rng.End() {
			return root
		}
		return nil
	}
	var offender, verb string
	found := func(id *ast.Ident, what string) bool {
		if id != nil && offender == "" {
			offender, verb = id.Name, what
		}
		return offender != ""
	}
	// draws reports e when it is a non-loop-local generator.
	draws := func(e ast.Expr) bool {
		if !isRandPtr(p.Info.TypeOf(e)) || outer(e) == nil {
			return false
		}
		if offender == "" {
			offender, verb = types.ExprString(e), "draws from"
		}
		return true
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if offender != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if found(outer(lhs), "assigns to") {
					return false
				}
			}
		case *ast.IncDecStmt:
			if found(outer(s.X), "mutates") {
				return false
			}
		case *ast.SendStmt:
			if found(outer(s.Chan), "sends on") {
				return false
			}
		case *ast.CallExpr:
			if obj, ok := calleeFunc(p.Info, s).(*types.Builtin); ok && obj.Name() == "delete" && len(s.Args) > 0 {
				if found(outer(s.Args[0]), "deletes from") {
					return false
				}
			}
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil && draws(sel.X) {
				return false
			}
			for _, arg := range s.Args {
				if draws(arg) {
					return false
				}
			}
		}
		return true
	})
	if offender != "" {
		p.Reportf(rng.Pos(), "map iteration %s non-loop-local state %q: map order is randomized per run; iterate a sorted key slice, or annotate //optlint:nondeterministic-ok with why the result is order-independent", verb, offender)
	}
}

// isRandPtr reports whether t is a pointer to a generator: *rand.Rand of
// math/rand or math/rand/v2, or a pointer to a named type with an Int63
// method (a rand.Source, such as noise.Source).
func isRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if path := named.Obj().Pkg().Path(); named.Obj().Name() == "Rand" && (path == "math/rand" || path == "math/rand/v2") {
		return true
	}
	m, _, _ := types.LookupFieldOrMethod(ptr, false, named.Obj().Pkg(), "Int63")
	_, ok = m.(*types.Func)
	return ok
}
