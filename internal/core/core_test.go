package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/testfunc"
)

func space(f func([]float64) float64, dim int, sigma float64, seed int64) *sim.LocalSpace {
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim:      dim,
		F:        f,
		Sigma0:   sim.ConstSigma(sigma),
		Seed:     seed,
		Parallel: true,
	})
}

// initSimplex builds d+1 vertices uniformly in [lo, hi) per coordinate.
func initSimplex(d int, lo, hi float64, rng *rand.Rand) [][]float64 {
	s := make([][]float64, d+1)
	for i := range s {
		s[i] = make([]float64, d)
		for j := range s[i] {
			s[i][j] = lo + (hi-lo)*rng.Float64()
		}
	}
	return s
}

func TestDETNoiselessSphere(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 1)
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-10
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{3, 3}, {4, 3}, {3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "tolerance" {
		t.Fatalf("termination = %q, want tolerance", res.Termination)
	}
	if d := testfunc.Dist(res.BestX, []float64{0, 0}); d > 1e-3 {
		t.Fatalf("DET sphere: best %v too far from origin (d=%v)", res.BestX, d)
	}
}

func TestDETNoiselessRosenbrock(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 2, 0, 1)
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-12
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{-1.2, 1}, {-1, 1.2}, {-0.8, 0.8}}})
	if err != nil {
		t.Fatal(err)
	}
	if f := testfunc.Rosenbrock(res.BestX); f > 1e-4 {
		t.Fatalf("DET rosenbrock: f(best) = %v at %v, want near 0", f, res.BestX)
	}
}

func TestAllAlgorithmsRunOnNoisyRosenbrock(t *testing.T) {
	for _, alg := range []Algorithm{DET, MN, PC, PCMN, AndersonNM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			sp := space(testfunc.Rosenbrock, 3, 10, 42)
			cfg := DefaultConfig(alg)
			cfg.MaxWalltime = 5e4
			cfg.Tol = 1e-3
			rng := rand.New(rand.NewSource(7))
			res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 {
				t.Fatal("no iterations performed")
			}
			if res.Termination == "" {
				t.Fatal("empty termination reason")
			}
			if len(res.BestX) != 3 {
				t.Fatalf("BestX dimension %d", len(res.BestX))
			}
			// The run must improve on the worst starting point.
			if f := testfunc.Rosenbrock(res.BestX); f > 1e6 {
				t.Fatalf("f(best) = %v: no progress at all", f)
			}
		})
	}
}

// MN must track the true minimum substantially better than DET under heavy
// noise: this is Fig 3.5a's headline claim. Aggregate over seeds to avoid
// flakiness.
func TestMNBeatsDETUnderHeavyNoise(t *testing.T) {
	const trials = 12
	var detErr, mnErr float64
	for s := int64(0); s < trials; s++ {
		rng := rand.New(rand.NewSource(1000 + s))
		start := initSimplex(3, -2, 2, rng)

		run := func(alg Algorithm) float64 {
			sp := space(testfunc.Rosenbrock, 3, 1000, 500+s)
			cfg := DefaultConfig(alg)
			cfg.MaxWalltime = 2e4
			cfg.Tol = 0 // run to the time budget
			res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
			if err != nil {
				t.Fatal(err)
			}
			return testfunc.Rosenbrock(res.BestX)
		}
		detErr += math.Log10(run(DET) + 1e-12)
		mnErr += math.Log10(run(MN) + 1e-12)
	}
	if mnErr >= detErr {
		t.Fatalf("MN mean log-error %.3f not better than DET %.3f", mnErr/trials, detErr/trials)
	}
}

func TestTerminationWalltime(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 1000, 3)
	cfg := DefaultConfig(PC)
	cfg.MaxWalltime = 100
	cfg.Tol = 0
	rng := rand.New(rand.NewSource(1))
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "walltime" {
		t.Fatalf("termination = %q, want walltime", res.Termination)
	}
}

func TestTerminationIterations(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 0, 3)
	cfg := DefaultConfig(DET)
	cfg.Tol = 0
	cfg.MaxIterations = 5
	cfg.MaxWalltime = 0
	rng := rand.New(rand.NewSource(2))
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "iterations" || res.Iterations != 5 {
		t.Fatalf("got %q after %d iters, want iterations after 5", res.Termination, res.Iterations)
	}
}

func TestTerminationToleranceImmediate(t *testing.T) {
	// A simplex whose vertices all have the same value terminates at once.
	sp := space(func(x []float64) float64 { return 7 }, 2, 0, 1)
	cfg := DefaultConfig(DET)
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{0, 0}, {1, 0}, {0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != "tolerance" || res.Iterations != 0 {
		t.Fatalf("got %q after %d iters, want tolerance after 0", res.Termination, res.Iterations)
	}
}

func TestInitialSimplexValidation(t *testing.T) {
	sp := space(testfunc.Sphere, 3, 0, 1)
	cfg := DefaultConfig(DET)
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{0, 0, 0}}}); err == nil {
		t.Fatal("expected error for wrong vertex count")
	}
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}}); err == nil {
		t.Fatal("expected error for wrong vertex dimension")
	}
}

func TestConfigValidation(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 1)
	start := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	bad := []func(*Config){
		func(c *Config) { c.InitialSample = 0 },
		func(c *Config) { c.Resample = -1 },
		func(c *Config) { c.ResampleGrowth = 0.5 },
		func(c *Config) { c.Tol = -1 },
		func(c *Config) { c.MaxWaitRounds = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(DET)
		mutate(&cfg)
		if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start}); err == nil {
			t.Errorf("mutation %d: expected config validation error", i)
		}
	}
	cfgPC := DefaultConfig(PC)
	cfgPC.K = 0
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfgPC.Algorithm.String(), Config: cfgPC, Initial: start}); err == nil {
		t.Error("PC with K=0 accepted")
	}
	cfgMN := DefaultConfig(MN)
	cfgMN.MNK = 0
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfgMN.Algorithm.String(), Config: cfgMN, Initial: start}); err == nil {
		t.Error("MN with MNK=0 accepted")
	}
	cfgA := DefaultConfig(AndersonNM)
	cfgA.K1 = 0
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfgA.Algorithm.String(), Config: cfgA, Initial: start}); err == nil {
		t.Error("AndersonNM with K1=0 accepted")
	}
}

func TestForcedDecisionsUnderTinyWaitCap(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 1000, 9)
	cfg := DefaultConfig(PC)
	cfg.MaxWaitRounds = 1
	cfg.MaxIterations = 50
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	rng := rand.New(rand.NewSource(4))
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedDecisions == 0 {
		t.Fatal("expected some forced decisions with MaxWaitRounds=1 under heavy noise")
	}
}

func TestMoveStatsAccounting(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 2, 0, 1)
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-10
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{-1.2, 1}, {-1, 1.2}, {-0.8, 0.8}}})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Moves.Reflections + res.Moves.Expansions + res.Moves.Contractions + res.Moves.Collapses
	if total != res.Iterations {
		t.Fatalf("moves total %d != iterations %d", total, res.Iterations)
	}
}

func TestContractionLevelTracking(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 1)
	cfg := DefaultConfig(DET)
	cfg.Tol = 1e-10
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{10, 10}, {11, 10}, {10, 11}}})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Moves.Contractions - res.Moves.Expansions + 2*res.Moves.Collapses
	if res.ContractionLevel != want {
		t.Fatalf("contraction level %d, want %d (C=%d E=%d X=%d)",
			res.ContractionLevel, want, res.Moves.Contractions, res.Moves.Expansions, res.Moves.Collapses)
	}
}

func TestTraceEmission(t *testing.T) {
	sp := space(testfunc.Sphere, 2, 0, 1)
	cfg := DefaultConfig(DET)
	cfg.MaxIterations = 10
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	var events []TraceEvent
	cfg.Trace = func(e TraceEvent) { events = append(events, e) }
	if _, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{3, 3}, {4, 3}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d trace events, want 10", len(events))
	}
	for i, e := range events {
		if e.Iter != i+1 {
			t.Fatalf("event %d has Iter %d", i, e.Iter)
		}
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatal("trace time went backwards")
		}
		if math.IsNaN(e.BestUnderlying) {
			t.Fatal("LocalSpace should expose underlying values")
		}
	}
}

func TestStepOverheadAdvancesClock(t *testing.T) {
	run := func(overhead float64) float64 {
		sp := space(testfunc.Sphere, 2, 0, 1)
		cfg := DefaultConfig(DET)
		cfg.MaxIterations = 5
		cfg.Tol = 0
		cfg.MaxWalltime = 0
		cfg.OverheadBase = overhead
		res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: [][]float64{{3, 3}, {4, 3}, {3, 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Walltime
	}
	without := run(0)
	with := run(10)
	if diff := with - without; math.Abs(diff-50) > 1e-9 {
		t.Fatalf("overhead contribution = %v, want 50", diff)
	}
}

func TestConditionMask(t *testing.T) {
	m := Conditions(1, 3, 6)
	for n := 1; n <= 7; n++ {
		want := n == 1 || n == 3 || n == 6
		if m.Has(n) != want {
			t.Errorf("Has(%d) = %v, want %v", n, m.Has(n), want)
		}
	}
	if m.String() != "c136" {
		t.Errorf("String() = %q, want c136", m.String())
	}
	if AllConditions.String() != "c1-7" {
		t.Errorf("AllConditions.String() = %q", AllConditions.String())
	}
	if Conditions().String() != "c(none)" {
		t.Errorf("empty mask String() = %q", Conditions().String())
	}
}

func TestConditionMaskPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Conditions(8) did not panic")
		}
	}()
	Conditions(8)
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"det": DET, "DET": DET, "mn": MN, "pc": PC,
		"pc+mn": PCMN, "pcmn": PCMN, "anderson": AndersonNM,
	}
	for s, want := range cases {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus name")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, c := range []struct {
		a Algorithm
		s string
	}{{DET, "DET"}, {MN, "MN"}, {PC, "PC"}, {PCMN, "PC+MN"}, {AndersonNM, "AndersonNM"}} {
		if c.a.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", int(c.a), c.a.String(), c.s)
		}
	}
}

func TestMoveString(t *testing.T) {
	moves := map[Move]string{
		MoveNone: "none", MoveReflect: "reflect", MoveExpand: "expand",
		MoveContract: "contract", MoveCollapse: "collapse",
	}
	for m, s := range moves {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

// Property: for any seed and algorithm, results satisfy structural
// invariants — best value equals the minimum of the final vertex values, the
// final simplex has d+1 vertices of dimension d, walltime is non-negative.
func TestResultInvariantsProperty(t *testing.T) {
	algs := []Algorithm{DET, MN, PC, PCMN, AndersonNM}
	f := func(seed int64, algPick uint8) bool {
		alg := algs[int(algPick)%len(algs)]
		rng := rand.New(rand.NewSource(seed))
		sp := space(testfunc.Rosenbrock, 3, 50, seed)
		cfg := DefaultConfig(alg)
		cfg.MaxIterations = 60
		cfg.MaxWalltime = 1e4
		cfg.Tol = 1e-3
		res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -3, 3, rng)})
		if err != nil {
			return false
		}
		if len(res.FinalSimplex) != 4 || len(res.FinalValues) != 4 {
			return false
		}
		minV := math.Inf(1)
		for _, v := range res.FinalValues {
			if v < minV {
				minV = v
			}
		}
		if res.BestG != minV {
			return false
		}
		for _, v := range res.FinalSimplex {
			if len(v) != 3 {
				return false
			}
		}
		return res.Walltime >= 0 && res.Termination != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The geometric helpers must satisfy their defining identities, whether they
// write a fresh buffer or one of their own inputs.
func TestGeometryHelpersProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		cent, xmax := a[:], b[:]
		ref := reflectPoint(make([]float64, 4), cent, xmax)
		exp := expandPoint(make([]float64, 4), ref, cent)
		con := contractPoint(make([]float64, 4), xmax, cent)
		inPlace := append([]float64(nil), ref...)
		if expandPoint(inPlace, inPlace, cent); !slices.Equal(inPlace, exp) {
			return false
		}
		for i := range cent {
			if math.IsNaN(cent[i]) || math.Abs(cent[i]) > 1e100 ||
				math.IsNaN(xmax[i]) || math.Abs(xmax[i]) > 1e100 {
				return true
			}
			// ref - cent == cent - xmax (reflection through centroid)
			if math.Abs((ref[i]-cent[i])-(cent[i]-xmax[i])) > 1e-6*(1+math.Abs(cent[i])+math.Abs(xmax[i])) {
				return false
			}
			// exp == 2*ref - cent
			if math.Abs(exp[i]-(2*ref[i]-cent[i])) > 1e-6*(1+math.Abs(ref[i])+math.Abs(cent[i])) {
				return false
			}
			// con is the midpoint of xmax and cent
			if math.Abs(con[i]-(xmax[i]+cent[i])/2) > 1e-6*(1+math.Abs(cent[i])+math.Abs(xmax[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// PC with no error bars must behave exactly like a mean-based comparison:
// no resample rounds are ever needed at the c1/c5 stage because the two
// conditions are complements.
func TestPCNoErrorBarsNeverResamples(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 100, 21)
	cfg := DefaultConfig(PC)
	cfg.ErrorBars = Conditions() // none
	cfg.MaxIterations = 100
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	rng := rand.New(rand.NewSource(6))
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResampleRounds != 0 {
		t.Fatalf("PC without error bars resampled %d times", res.ResampleRounds)
	}
}

// PC with error bars on all conditions must spend sampling effort resolving
// comparisons under heavy noise.
func TestPCAllErrorBarsResamples(t *testing.T) {
	sp := space(testfunc.Rosenbrock, 3, 1000, 22)
	cfg := DefaultConfig(PC)
	cfg.MaxIterations = 50
	cfg.Tol = 0
	cfg.MaxWalltime = 0
	rng := rand.New(rand.NewSource(6))
	res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: initSimplex(3, -2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResampleRounds == 0 {
		t.Fatal("PC with error bars never resampled under heavy noise")
	}
}

// PCMN imposes the max-noise gate on top of the PC conditions (Algorithm 4):
// it must spend wait rounds that plain PC never does, and its per-step
// sampling investment (evaluations per iteration) must be at least PC's.
func TestPCMNStricterThanPC(t *testing.T) {
	var pcEvalsPerStep, pcmnEvalsPerStep float64
	var pcWaits, pcmnWaits int
	for s := int64(0); s < 6; s++ {
		rng := rand.New(rand.NewSource(3000 + s))
		start := initSimplex(4, -5, 5, rng)
		run := func(alg Algorithm) *Result {
			sp := space(testfunc.Rosenbrock, 4, 1000, 800+s)
			cfg := DefaultConfig(alg)
			cfg.MaxWalltime = 3e4
			cfg.Tol = 0
			res, err := Run(context.Background(), sp, RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pc := run(PC)
		pcmn := run(PCMN)
		pcEvalsPerStep += float64(pc.Evaluations) / float64(pc.Iterations)
		pcmnEvalsPerStep += float64(pcmn.Evaluations) / float64(pcmn.Iterations)
		pcWaits += pc.WaitRounds
		pcmnWaits += pcmn.WaitRounds
	}
	if pcWaits != 0 {
		t.Fatalf("plain PC recorded %d max-noise wait rounds", pcWaits)
	}
	if pcmnWaits == 0 {
		t.Fatal("PC+MN never engaged the max-noise gate")
	}
	if pcmnEvalsPerStep <= pcEvalsPerStep {
		t.Fatalf("PC+MN sampling per step %.1f not above PC's %.1f",
			pcmnEvalsPerStep/6, pcEvalsPerStep/6)
	}
}
