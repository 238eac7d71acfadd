package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyWaivers lists the exported names under internal/ that no non-test
// file uses but that stay on purpose, one row per name with its reason.
// A name is "<pkg>.<Decl>", "<pkg>.<Type>.<Method>" or "<pkg>.<Type>.<Field>",
// with <pkg> the import path below repro/internal/.
var testOnlyWaivers = []struct {
	name   string
	reason string
}{
	// Test seams: a test swaps in its own objective catalog or checks what
	// a constructor kept.
	{"dist.WorkerConfig.Objectives", "test seam: TestFleetObjectiveMismatchFailsLoudly registers a divergent objective"},
	{"jobs.Config.Objectives", "test seam: tests register slow, gated and stamped objectives"},
	{"jobstore.FileStore.Dir", "test seam: TestOpenDispatch checks that Open kept the directory it was given"},
	{"jobstore.WALStore.Dir", "test seam: TestOpenDispatch checks that Open kept the directory it was given"},

	// Invariants and references that tests compare against.
	{"md.System.MaxConstraintViolation", "invariant: the SHAKE/RATTLE tests bound it"},
	{"md.System.TotalEnergy", "invariant: TestEnergyConservationNVE bounds its drift"},
	{"md.System.TotalMomentum", "invariant: the integrator tests hold it at zero"},
	{"stats.Variance", "reference: the Welford tests compare the online moments against it"},
	{"water.NewPartialSurrogate", "section 3.5's one-system-per-client model, pinned by TestMultiSystemVertexDeterministic"},
	{"water.PartialCostNoiseFree", "section 3.5's one-system-per-client model, pinned by TestMultiSystemVertexDeterministic"},

	// An MD physics parameter that tests change.
	{"md.Config.Cutoff", "physics parameter: TestCellListMatchesDirectPairs shrinks it so the cell list engages"},

	// Fair-share observation, which ROADMAP item 4 (one dispatch engine)
	// moves onto the coordinator.
	{"sched.Scheduler.Dispatched", "fair-share observation; moves with ROADMAP item 4"},
	{"sched.Scheduler.Shares", "fair-share observation; moves with ROADMAP item 4"},
}

// TestNoTestOnlyAPI fails when an exported declaration under internal/ is
// referenced by no non-test file, or when an exported field of an exported
// struct there is written by no non-test file. Such a name is API that only
// tests reach: delete it, or add a waiver row saying why it stays. Every
// package of the module counts as a caller (bench, cmd and examples too).
func TestNoTestOnlyAPI(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	ifaces, err := interfaceMethods("../..", pkgs)
	if err != nil {
		t.Fatal(err)
	}
	findings := testOnlyAPI(pkgs, ifaces)
	waived := map[string]bool{}
	for _, w := range testOnlyWaivers {
		if w.reason == "" {
			t.Errorf("waiver %s has no reason", w.name)
		}
		waived[w.name] = true
	}
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.name] = true
		if !waived[f.name] {
			t.Errorf("%s: %s %s", f.pos, f.name, f.what)
		}
	}
	for _, w := range testOnlyWaivers {
		if !seen[w.name] {
			t.Errorf("waiver %s matches no finding; delete the row", w.name)
		}
	}
}

// testOnlyFinding is one name that only tests reach.
type testOnlyFinding struct {
	name string
	what string
	pos  token.Position
}

// testOnlyAPI returns, sorted by name, every exported declaration under
// internal/ that no file of pkgs references and every exported field of an
// exported struct there that no file of pkgs writes. pkgs hold non-test files
// only (Load never parses _test.go files); storetest is neither a declarer
// nor a caller.
func testOnlyAPI(pkgs []*Package, ifaceMethods map[string]bool) []testOnlyFinding {
	const root = "repro/internal/"
	// Load shares one FileSet across its packages. Each package is
	// type-checked on its own, against export data for its imports, so one
	// declaration is a different types.Object in every package that sees
	// it: key it by where it is declared.
	fset := pkgs[0].Fset
	key := func(obj types.Object) string { return declKey(fset, obj) }
	used := map[string]bool{}
	written := map[string]bool{}
	var declaring []*Package
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.ImportPath, "/storetest") {
			continue
		}
		if strings.HasPrefix(pkg.ImportPath, root) {
			declaring = append(declaring, pkg)
		}
		for _, obj := range pkg.Info.Uses {
			used[key(obj)] = true
		}
		for _, sel := range pkg.Info.Selections {
			used[key(sel.Obj())] = true
		}
		for _, f := range pkg.Files {
			markWrites(pkg.Info, f, func(obj types.Object) { written[key(obj)] = true })
		}
	}

	var out []testOnlyFinding
	add := func(obj types.Object, name, what string) {
		out = append(out, testOnlyFinding{
			name: strings.TrimPrefix(obj.Pkg().Path(), root) + "." + name,
			what: what,
			pos:  fset.Position(obj.Pos()),
		})
	}
	for _, pkg := range declaring {
		scope := pkg.Types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			if !used[key(obj)] {
				add(obj, n, "is referenced by no non-test file")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[key(m)] && !ifaceMethods[m.Name()] {
					add(m, n+"."+m.Name(), "is called by no non-test file")
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && !written[key(f)] {
					add(f, n+"."+f.Name(), "is set by no non-test file")
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// declKey names obj by the file, line and name of its declaration, the same
// whether obj was type-checked from source or read from export data (which
// keeps no exact column).
func declKey(fset *token.FileSet, obj types.Object) string {
	switch o := obj.(type) {
	case *types.Var:
		obj = o.Origin()
	case *types.Func:
		obj = o.Origin()
	}
	pos := fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, obj.Name())
}

// markWrites records in written every struct field that f stores to: a keyed
// or positional composite literal, the left side of an assignment or ++/--
// (through any index or field chain), or an address taken with &.
func markWrites(info *types.Info, f *ast.File, write func(types.Object)) {
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				write(sel.Obj())
			}
			lvalue(x.X)
		case *ast.IndexExpr:
			lvalue(x.X)
		case *ast.ParenExpr:
			lvalue(x.X)
		case *ast.StarExpr:
			lvalue(x.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				lvalue(l)
			}
		case *ast.IncDecStmt:
			lvalue(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				lvalue(x.X)
			}
		case *ast.CallExpr:
			// A pointer passed as an `any` argument may be written through
			// by reflection, as encoding/json decodes a request body or a
			// snapshot.
			sig, ok := info.TypeOf(x.Fun).Underlying().(*types.Signature)
			if !ok {
				break
			}
			for i, arg := range x.Args {
				if ptr, ok := info.TypeOf(arg).Underlying().(*types.Pointer); ok && isAny(paramType(sig, i)) {
					writeAll(ptr.Elem(), write, map[types.Type]bool{})
				}
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(x).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							write(obj)
						}
					}
				} else if i < st.NumFields() {
					write(st.Field(i))
				}
			}
		}
		return true
	})
}

// interfaceMethods returns the method names of every interface type that the
// loaded packages use or that any package in their build declares, the
// standard library included: a method named like one may exist only to
// satisfy it (encoding.BinaryMarshaler, http.Handler).
func interfaceMethods(dir string, pkgs []*Package) (map[string]bool, error) {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	listed, err := goList(dir, "./...")
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", exportLookup(exports))
	for path := range exports {
		p, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return names, nil
}

// paramType is the type of the i-th argument of a call to sig.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		return params.At(params.Len() - 1).Type().(*types.Slice).Elem()
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// isAny reports whether t is the empty interface.
func isAny(t types.Type) bool {
	if t == nil {
		return false
	}
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.Empty()
}

// writeAll marks every field of t written, and the fields of every struct
// reachable from them.
func writeAll(t types.Type, write func(types.Object), seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			write(u.Field(i))
			writeAll(u.Field(i).Type(), write, seen)
		}
	case *types.Pointer:
		writeAll(u.Elem(), write, seen)
	case *types.Slice:
		writeAll(u.Elem(), write, seen)
	case *types.Array:
		writeAll(u.Elem(), write, seen)
	case *types.Map:
		writeAll(u.Elem(), write, seen)
	}
}
