package optroot

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// buildQuadraticRoot creates an OPTROOT whose cost is minimized at
// (a, b) = (1.5, 2.5): two systems echo the parameters, two properties
// target those values.
func buildQuadraticRoot(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write("input", strings.Join([]string{
		"a b",
		"0.0 0.0",
		"1.0 0.0",
		"0.0 1.0",
	}, "\n"))
	write("systems/sysA/run.sh", "echo $PARAM_a > outA\n")
	write("systems/sysB/run.sh", "echo $PARAM_b > outB\n")
	write("properties/prop1.sh", "cat sysA/outA\n")
	write("properties/prop1.val", "1.5\n")
	write("properties/prop2.sh", "cat sysB/outB\n")
	write("properties/prop2.val", "2.5\n")
	return dir
}

func TestSpaceImplementsSim(t *testing.T) {
	var _ sim.Space = (*Space)(nil)
}

func TestSpaceBasics(t *testing.T) {
	root, err := Load(buildQuadraticRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(root)
	if sp.Dim() != 2 {
		t.Fatalf("Dim = %d", sp.Dim())
	}
	p := sp.NewPoint([]float64{1.5, 2.5})
	est := p.Estimate()
	if !math.IsInf(est.Sigma, 1) {
		t.Fatalf("unsampled sigma = %v, want +Inf", est.Sigma)
	}
	p.Sample(1)
	est = p.Estimate()
	if est.Mean != 0 {
		t.Fatalf("cost at the optimum = %v, want 0", est.Mean)
	}
	p.Sample(1)
	if got := p.Estimate(); got.Sigma != 0 {
		t.Fatalf("deterministic scripts: sigma = %v after two batches", got.Sigma)
	}
	if sp.Evaluations() != 2 {
		t.Fatalf("evaluations = %d", sp.Evaluations())
	}
	if sp.Err() != nil {
		t.Fatalf("unexpected error: %v", sp.Err())
	}
	p.Close()
}

func TestSpaceDimMismatchPanics(t *testing.T) {
	root, err := Load(buildQuadraticRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSpace(root).NewPoint([]float64{1})
}

// Full pipeline: the DET simplex over real shell-script evaluations must
// drive the parameters to the property targets (the cmd/mwopt path).
func TestOptimizeOverScriptTree(t *testing.T) {
	root, err := Load(buildQuadraticRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(root)
	cfg := core.DefaultConfig(core.DET)
	cfg.MaxIterations = 60
	cfg.Tol = 1e-10
	cfg.MaxWalltime = 0
	res, err := core.Run(context.Background(), sp, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: root.InitialSimplex})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Err() != nil {
		t.Fatalf("script failures: %v", sp.Err())
	}
	if math.Abs(res.BestX[0]-1.5) > 0.05 || math.Abs(res.BestX[1]-2.5) > 0.05 {
		t.Fatalf("best = %v, want ~(1.5, 2.5)", res.BestX)
	}
}

func TestSpaceSurvivesFailingScripts(t *testing.T) {
	dir := buildQuadraticRoot(t)
	// Break sysB: the space must report +Inf costs rather than abort.
	os.WriteFile(filepath.Join(dir, "systems", "sysB", "run.sh"), []byte("exit 1\n"), 0o755)
	root, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(root)
	p := sp.NewPoint([]float64{1, 1})
	p.Sample(1)
	if est := p.Estimate(); !math.IsInf(est.Mean, 1) {
		t.Fatalf("failing script cost = %v, want +Inf", est.Mean)
	}
	if sp.Err() == nil {
		t.Fatal("script failure not recorded")
	}
}
