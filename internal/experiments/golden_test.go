package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the goldens after an intentional change to an experiment's
// output with:
//
//	go test ./internal/experiments -run TestGoldenOutputs -update
var update = flag.Bool("update", false, "regenerate experiment golden files")

// TestGoldenOutputs renders every registered driver with the quick protocol
// at seed 1 and diffs it against testdata/<name>.golden, so a refactor of
// any layer under the experiments (the MW deployment, the water surrogate,
// the optimizer) that changes a printed number fails here.
func TestGoldenOutputs(t *testing.T) {
	for _, d := range Registry() {
		t.Run(d.Name, func(t *testing.T) {
			got, err := d.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", d.Name+".golden")
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
