package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFiltersMatchTests fails when a -run, -bench or -fuzz alternative on a
// `go test` line of the CI workflow matches no test function declared in the
// _test.go files of the packages that line lists. A renamed or deleted test
// would otherwise turn its CI step into a pass that runs nothing. A subtest
// filter is checked by its top-level part; '^$' (run no tests) is exempt.
func TestCIFiltersMatchTests(t *testing.T) {
	const root = "../.."
	data, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		line = strings.TrimSpace(strings.TrimPrefix(line, "run:"))
		if !strings.HasPrefix(line, "go test ") {
			continue
		}
		args := shellFields(line)[2:]
		filters := map[string]string{}
		var pkgs []string
		for i := 0; i < len(args); i++ {
			a := args[i]
			if _, ok := kinds[a]; ok && i+1 < len(args) {
				filters[a] = args[i+1]
				i++
			} else if flag, val, ok := strings.Cut(a, "="); ok && kinds[flag] != nil {
				filters[flag] = val
			} else if strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
		}
		if len(filters) == 0 {
			continue
		}
		funcs, err := testFuncs(root, pkgs)
		if err != nil {
			t.Fatalf("ci.yml:%d: %v", n+1, err)
		}
		for flag, pattern := range filters {
			if pattern == "^$" {
				continue
			}
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				rx, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s %q: %v", n+1, flag, alt, err)
					continue
				}
				checked++
				if !matchesFunc(rx, funcs, kinds[flag]) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no %s func in %v",
						n+1, flag, alt, strings.Join(kinds[flag], "/"), pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test filter in ci.yml")
	}
}

// matchesFunc reports whether rx matches a name in funcs that has one of the
// prefixes.
func matchesFunc(rx *regexp.Regexp, funcs []string, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && rx.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// testFuncs returns the names of the top-level functions declared in the
// _test.go files of pkgs, package patterns relative to root ("./x" or
// "./x/...").
func testFuncs(root string, pkgs []string) ([]string, error) {
	fset := token.NewFileSet()
	var names []string
	parse := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	}
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != filepath.Join(root, dir) && (!recursive || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, "_test.go") {
				return parse(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// shellFields splits a command line on spaces, keeping single-quoted words
// whole (without their quotes).
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted = !quoted
			inWord = true
		case r == ' ' && !quoted:
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}
