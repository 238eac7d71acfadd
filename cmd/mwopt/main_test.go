package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the goldens after an intentional change to mwopt's output with:
//
//	go test ./cmd/mwopt -run TestGoldenOutputs -update
var update = flag.Bool("update", false, "regenerate mwopt golden files")

// buildQuadraticRoot creates an OPTROOT whose cost is minimized at
// (a, b) = (1.5, 2.5): two systems echo the parameters, two properties
// target those values.
func buildQuadraticRoot(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range map[string]string{
		"input":                "a b\n0.0 0.0\n1.0 0.0\n0.0 1.0\n",
		"systems/sysA/run.sh":  "echo $PARAM_a > outA\n",
		"systems/sysB/run.sh":  "echo $PARAM_b > outB\n",
		"properties/prop1.sh":  "cat sysA/outA\n",
		"properties/prop1.val": "1.5\n",
		"properties/prop2.sh":  "cat sysB/outB\n",
		"properties/prop2.val": "2.5\n",
	} {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGoldenOutputs runs mwopt over the quadratic script tree for each
// algorithm and diffs its stdout, with the tree's temporary path replaced by
// $OPTROOT, against testdata/<alg>.golden.
func TestGoldenOutputs(t *testing.T) {
	for _, alg := range []string{"det", "mn", "pc", "pc+mn"} {
		t.Run(alg, func(t *testing.T) {
			dir := buildQuadraticRoot(t)
			var out strings.Builder
			if err := run([]string{"-alg", alg, "-iters", "30", dir}, &out); err != nil {
				t.Fatal(err)
			}
			got := strings.ReplaceAll(out.String(), dir, "$OPTROOT")
			path := filepath.Join("testdata", alg+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output differs from golden %s (regenerate with -update if intended):\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

func TestUsage(t *testing.T) {
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	for _, args := range [][]string{nil, {"a", "b"}, {"-no-such-flag", "dir"}} {
		if err := run(args, &strings.Builder{}); err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
