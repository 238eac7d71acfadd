package optroot

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mw"
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

// loadRoot loads dir, failing the test on error.
func loadRoot(t *testing.T, dir string) *Root {
	t.Helper()
	root, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// newSpace deploys the tree the way cmd/mwopt does: an MW space whose
// vertex slots each hold one Evaluator.
func newSpace(t *testing.T, root *Root) *mw.Space {
	t.Helper()
	sp, err := mw.NewSpace(mw.SpaceConfig{Dim: root.Dim(), Ns: 1,
		NewSystem: func(int, int) mw.SystemEvaluator { return root.NewEvaluator() }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Shutdown)
	return sp
}

// sample runs one script batch per point in one SampleBatch of dt 1.
func sample(t *testing.T, sp sim.Space, pts ...sim.Point) {
	t.Helper()
	if err := sp.SampleBatch(context.Background(), pts, 1); err != nil {
		t.Fatal(err)
	}
}

// parParams returns the params.txt of every par directory the tree's
// batches created, in par order.
func parParams(t *testing.T, root *Root) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(root.Dir, "systems", "par*"))
	if err != nil {
		t.Fatal(err)
	}
	params := make([]string, len(dirs))
	for i, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "params.txt"))
		if err != nil {
			t.Fatal(err)
		}
		params[i] = string(b)
	}
	return params
}

func TestEvaluatorImplementsSystemEvaluator(t *testing.T) {
	var _ mw.SystemEvaluator = (*Evaluator)(nil)
}

func TestSpaceBasics(t *testing.T) {
	root := loadRoot(t, buildQuadraticRoot(t))
	sp := newSpace(t, root)
	p := sp.NewPoint([]float64{1.5, 2.5})
	est := p.Estimate()
	if !math.IsInf(est.Sigma, 1) {
		t.Fatalf("unsampled sigma = %v, want +Inf", est.Sigma)
	}
	sample(t, sp, p)
	est = p.Estimate()
	if est.Mean != 0 || est.Time != 1 {
		t.Fatalf("at the optimum after one batch: %+v, want mean 0 at t=1", est)
	}
	sample(t, sp, p)
	if got := p.Estimate(); got.Sigma != 0 || got.Time != 2 {
		t.Fatalf("deterministic scripts after two batches: %+v, want sigma 0 at t=2", got)
	}
	if sp.Evaluations() != 2 {
		t.Fatalf("evaluations = %d", sp.Evaluations())
	}
	if root.Err() != nil {
		t.Fatalf("unexpected error: %v", root.Err())
	}
	p.Close()
}

// A batch with scatter reports the Welford mean of the batch costs and the
// squared standard error as the variance of that mean.
func TestEvaluatorReportsMeanAndItsVariance(t *testing.T) {
	dir := buildQuadraticRoot(t)
	// sysA reports a, a+1, a+2, ... on successive batches.
	os.WriteFile(filepath.Join(dir, "systems", "sysA", "run.sh"), []byte(
		"c=$(cat $OPTROOT/count 2>/dev/null || echo 0)\n"+
			"echo $((c + 1)) > $OPTROOT/count\n"+
			"echo $((c + PARAM_a)) > outA\n"), 0o755)
	root := loadRoot(t, dir)
	e := root.NewEvaluator()
	e.Start([]float64{1, 2.5})
	e.Sample(1)
	if m, v, n := e.Report(); m != 0.25/(1.5*1.5) || v != 0 || n != 1 {
		t.Fatalf("after one batch: (%v, %v, %v), want (%v, 0, 1)", m, v, n, 0.25/(1.5*1.5))
	}
	e.Sample(1)
	e.Sample(1)
	// Costs ((a-1.5)/1.5)^2 for a = 1, 2, 3.
	costs := []float64{0.25 / 2.25, 0.25 / 2.25, 2.25 / 2.25}
	mean := (costs[0] + costs[1] + costs[2]) / 3
	var ss float64
	for _, c := range costs {
		ss += (c - mean) * (c - mean)
	}
	m, v, n := e.Report()
	if math.Abs(m-mean) > 1e-12 || math.Abs(v-ss/2/3) > 1e-12 || n != 3 {
		t.Fatalf("after three batches: (%v, %v, %v), want (%v, %v, 3)", m, v, n, mean, ss/2/3)
	}
	if root.Err() != nil {
		t.Fatal(root.Err())
	}
}

// Full pipeline: the DET simplex over real shell-script evaluations must
// drive the parameters to the property targets (the cmd/mwopt path).
func TestOptimizeOverScriptTree(t *testing.T) {
	root := loadRoot(t, buildQuadraticRoot(t))
	sp := newSpace(t, root)
	cfg := core.DefaultConfig(core.DET)
	cfg.MaxIterations = 60
	cfg.Tol = 1e-10
	cfg.MaxWalltime = 0
	res, err := core.Run(context.Background(), sp, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: root.InitialSimplex})
	if err != nil {
		t.Fatal(err)
	}
	if root.Err() != nil {
		t.Fatalf("script failures: %v", root.Err())
	}
	if math.Abs(res.BestX[0]-1.5) > 0.05 || math.Abs(res.BestX[1]-2.5) > 0.05 {
		t.Fatalf("best = %v, want ~(1.5, 2.5)", res.BestX)
	}
}

// breakSysB makes every batch of the tree at dir fail.
func breakSysB(t *testing.T, dir string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "systems", "sysB", "run.sh"), []byte("exit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSurvivesFailingScripts(t *testing.T) {
	dir := buildQuadraticRoot(t)
	// Break sysB: the space must report +Inf costs rather than abort.
	breakSysB(t, dir)
	root := loadRoot(t, dir)
	sp := newSpace(t, root)
	p := sp.NewPoint([]float64{1, 1})
	sample(t, sp, p)
	if est := p.Estimate(); !math.IsInf(est.Mean, 1) {
		t.Fatalf("failing script cost = %v, want +Inf", est.Mean)
	}
	if root.Err() == nil {
		t.Fatal("script failure not recorded")
	}
}

// A failed point stays at cost +Inf with sigma 0 however often it is
// sampled, so the simplex keeps steering away from it (folding +Inf into a
// running mean would turn the second estimate into NaN, which compares
// false against everything).
func TestFailedPointStaysInfinite(t *testing.T) {
	dir := buildQuadraticRoot(t)
	breakSysB(t, dir)
	root := loadRoot(t, dir)
	sp := newSpace(t, root)
	p := sp.NewPoint([]float64{1, 1})
	for k := 1; k <= 2; k++ {
		sample(t, sp, p)
		if est := p.Estimate(); !math.IsInf(est.Mean, 1) || est.Sigma != 0 || est.Time != float64(k) {
			t.Fatalf("failing point after %d samples: %+v, want {Mean:+Inf Sigma:0 Time:%d}", k, est, k)
		}
	}
}

// An Evaluator that met a failure runs no further batch at that point, and
// Start clears the failure.
func TestEvaluatorFailureLastsUntilStart(t *testing.T) {
	dir := buildQuadraticRoot(t)
	script := filepath.Join(dir, "systems", "sysB", "run.sh")
	healthy, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	breakSysB(t, dir)
	root := loadRoot(t, dir)
	e := root.NewEvaluator()
	x := []float64{1.5, 2.5}
	e.Start(x)
	e.Sample(1)
	if err := os.WriteFile(script, healthy, 0o755); err != nil {
		t.Fatal(err)
	}
	e.Sample(1)
	if m, v, n := e.Report(); !math.IsInf(m, 1) || v != 0 || n != 2 {
		t.Fatalf("failed point after two samples: (%v, %v, %v), want (+Inf, 0, 2)", m, v, n)
	}
	if got := len(parParams(t, root)); got != 1 {
		t.Fatalf("%d batches ran, want 1: a failed point runs no more", got)
	}
	e.Start(x)
	e.Sample(1)
	if m, v, n := e.Report(); m != 0 || v != 0 || n != 1 {
		t.Fatalf("restarted point: (%v, %v, %v), want (0, 0, 1)", m, v, n)
	}
	if root.Err() == nil {
		t.Fatal("the first failure was not kept")
	}
}

// The batches of one SampleBatch run concurrently, each in its own par
// directory whose params.txt names the point it sampled.
func TestConcurrentBatchesNameTheirPoints(t *testing.T) {
	root := loadRoot(t, buildQuadraticRoot(t))
	sp := newSpace(t, root)
	xs := [][]float64{{1, 2}, {2, 1}, {0.5, 3}}
	pts := make([]sim.Point, len(xs))
	for i, x := range xs {
		pts[i] = sp.NewPoint(x)
	}
	const rounds = 4
	for range rounds {
		sample(t, sp, pts...)
	}
	params := parParams(t, root)
	if len(params) != rounds*len(xs) {
		t.Fatalf("%d par dirs, want %d", len(params), rounds*len(xs))
	}
	for i, x := range xs {
		want := fmt.Sprintf("a %g\nb %g\n", x[0], x[1])
		if n := len(slices.DeleteFunc(slices.Clone(params), func(p string) bool { return p != want })); n != rounds {
			t.Errorf("point %v: named by %d params.txt, want %d", x, n, rounds)
		}
		wantCost := math.Pow((x[0]-1.5)/1.5, 2) + math.Pow((x[1]-2.5)/2.5, 2)
		if est := pts[i].Estimate(); math.Abs(est.Mean-wantCost) > 1e-12 || est.Sigma != 0 || est.Time != rounds {
			t.Errorf("point %v: %+v, want mean %v, sigma 0, t %d", x, est, wantCost, rounds)
		}
	}
	if root.Err() != nil {
		t.Fatal(root.Err())
	}
}

// TestSpaceContract is the script tree's rows of the sampling contract every
// sim.Space keeps (internal/conformance holds the rows of the backends that
// need no script tree), run over mw.Space with one Evaluator per vertex: a
// canceled context and a refused batch run no script and move neither the
// clock nor Evaluations, an empty batch leaves the clock alone, and a
// k-point batch runs k script batches (k par directories) under one clock
// tick.
func TestSpaceContract(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name        string
		run         func(sp *mw.Space, a, b, c, foreign sim.Point) error
		wantErr     error
		wantPanic   string
		wantBatches int
		wantClock   float64
	}{
		{name: "pre-canceled", wantErr: context.Canceled,
			run: func(sp *mw.Space, a, b, _, _ sim.Point) error {
				return sp.SampleBatch(canceled, []sim.Point{a, b}, 1)
			}},
		{name: "empty",
			run: func(sp *mw.Space, _, _, _, _ sim.Point) error {
				return sp.SampleBatch(context.Background(), nil, 1)
			}},
		{name: "one-point", wantBatches: 1, wantClock: 1,
			run: func(sp *mw.Space, a, _, _, _ sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a}, 1)
			}},
		{name: "three-point", wantBatches: 3, wantClock: 1,
			run: func(sp *mw.Space, a, b, c, _ sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a, b, c}, 1)
			}},
		{name: "foreign", wantPanic: "foreign",
			run: func(sp *mw.Space, a, _, _, foreign sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a, foreign}, 1)
			}},
		{name: "closed", wantPanic: "closed",
			run: func(sp *mw.Space, a, b, _, _ sim.Point) error {
				b.Close()
				return sp.SampleBatch(context.Background(), []sim.Point{a, b}, 1)
			}},
		{name: "repeated", wantPanic: "twice",
			run: func(sp *mw.Space, a, b, _, _ sim.Point) error {
				return sp.SampleBatch(context.Background(), []sim.Point{a, b, a}, 1)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := loadRoot(t, buildQuadraticRoot(t))
			sp := newSpace(t, root)
			a, b, c := sp.NewPoint([]float64{1, 2}), sp.NewPoint([]float64{2, 1}), sp.NewPoint([]float64{0.5, 3})
			foreign := newSpace(t, root).NewPoint([]float64{0, 0})
			var err error
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				err = tc.run(sp, a, b, c, foreign)
				return ""
			}()
			if !strings.Contains(msg, tc.wantPanic) || (tc.wantPanic == "") != (msg == "") {
				t.Fatalf("panic %q, want one containing %q", msg, tc.wantPanic)
			}
			if err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := len(parParams(t, root)); got != tc.wantBatches {
				t.Errorf("%d script batches ran, want %d", got, tc.wantBatches)
			}
			if got := sp.Evaluations(); got != int64(tc.wantBatches) {
				t.Errorf("Evaluations = %d, want %d", got, tc.wantBatches)
			}
			if got := sp.Clock().Now(); got != tc.wantClock {
				t.Errorf("clock = %v, want %v", got, tc.wantClock)
			}
			if tc.wantBatches == 0 && a.Estimate().Time != 0 {
				t.Errorf("a batch that sampled nothing moved a point to t=%v", a.Estimate().Time)
			}
			if root.Err() != nil {
				t.Fatal(root.Err())
			}
		})
	}
}
