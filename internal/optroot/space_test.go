package optroot

import (
	"context"
	"fmt"
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

// sample runs one script batch per point in one SampleBatch of dt 1.
func sample(t *testing.T, sp *Space, pts ...sim.Point) {
	t.Helper()
	if err := sp.SampleBatch(context.Background(), pts, 1); err != nil {
		t.Fatal(err)
	}
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
	sample(t, sp, p)
	est = p.Estimate()
	if est.Mean != 0 {
		t.Fatalf("cost at the optimum = %v, want 0", est.Mean)
	}
	sample(t, sp, p)
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
	sample(t, sp, p)
	if est := p.Estimate(); !math.IsInf(est.Mean, 1) {
		t.Fatalf("failing script cost = %v, want +Inf", est.Mean)
	}
	if sp.Err() == nil {
		t.Fatal("script failure not recorded")
	}
}

// TestSpaceContract is the script-tree backend's row set of the sampling
// contract every sim.Space keeps (internal/conformance holds the rows of the
// other backends): a canceled context and a refused batch run no script and
// move neither the clock nor Evaluations, an empty batch leaves the clock
// alone, and a k-point batch runs k script batches under one clock tick.
func TestSpaceContract(t *testing.T) {
	root, err := Load(buildQuadraticRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name      string
		run       func(sp *Space, a, b sim.Point) error
		wantErr   error
		wantPanic string
		wantEvals int64
		wantClock float64
	}{
		{name: "pre-canceled", wantErr: context.Canceled,
			run: func(sp *Space, a, b sim.Point) error { return sp.SampleBatch(canceled, []sim.Point{a, b}, 1) }},
		{name: "empty",
			run: func(sp *Space, _, _ sim.Point) error { return sp.SampleBatch(context.Background(), nil, 1) }},
		{name: "two-points", wantEvals: 2, wantClock: 1,
			run: func(sp *Space, a, b sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a, b}, 1)
			}},
		{name: "foreign", wantPanic: "foreign",
			run: func(sp *Space, a, _ sim.Point) error {
				other := NewSpace(root).NewPoint([]float64{0, 0})
				return sp.SampleBatch(context.Background(), []sim.Point{a, other}, 1)
			}},
		{name: "closed", wantPanic: "closed",
			run: func(sp *Space, a, b sim.Point) error {
				b.Close()
				return sp.SampleBatch(context.Background(), []sim.Point{a, b}, 1)
			}},
		{name: "repeated", wantPanic: "twice",
			run: func(sp *Space, a, b sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a, b, a}, 1)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := NewSpace(root)
			a, b := sp.NewPoint([]float64{1, 2}), sp.NewPoint([]float64{2, 1})
			var err error
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				err = tc.run(sp, a, b)
				return ""
			}()
			if !strings.Contains(msg, tc.wantPanic) || (tc.wantPanic == "") != (msg == "") {
				t.Fatalf("panic %q, want one containing %q", msg, tc.wantPanic)
			}
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := sp.Evaluations(); got != tc.wantEvals {
				t.Errorf("Evaluations = %d, want %d", got, tc.wantEvals)
			}
			if got := sp.Clock().Now(); got != tc.wantClock {
				t.Errorf("clock = %v, want %v", got, tc.wantClock)
			}
			if tc.wantEvals == 0 && a.Estimate().Time != 0 {
				t.Errorf("a batch that sampled nothing moved a point to t=%v", a.Estimate().Time)
			}
		})
	}
}
