// Package conformance is the cross-strategy conformance harness: golden-trace
// tests that pin the exact optimization trajectory of every registered
// strategy — the five NM decision policies, the particle swarm and the
// PSO→simplex hybrid — on a fixed set of testfunc objectives, at worker
// counts {1, 4, 8}, in every driver mode (sequential, speculative, adaptive,
// speculative+adaptive).
//
// Two properties are enforced:
//
//  1. Worker-count invariance: the trace (every iteration's time, best value,
//     best vertex, move and level, rendered with exact hexadecimal float
//     formatting) is bitwise identical at 1, 4 and 8 workers.
//  2. Trajectory stability: the trace matches the committed golden file, so
//     any change to the decision logic, the sampling schedule, the stream-seed
//     assignment or the virtual-clock accounting shows up as a reviewable
//     golden diff instead of a silent behavior change.
//
// Beside the goldens, space_test.go holds every sampling backend to the one
// Space.SampleBatch contract (TestSpaceContract).
//
// Regenerate the goldens after an intentional trajectory change with:
//
//	go test ./internal/conformance -run TestGoldenTraces -update
package conformance

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testfunc"

	// Register the pso and hybrid strategies alongside the NM family.
	_ "repro/internal/pso"
)

var update = flag.Bool("update", false, "regenerate golden trace files")

// workerCounts is the pool-width matrix every case must be invariant over.
var workerCounts = []int{1, 4, 8}

// objectives are the three testfunc objectives of the conformance matrix.
var objectives = []struct {
	name string
	dim  int
}{
	{"rosenbrock", 3},
	{"sphere", 2},
	{"beale", 2},
}

// mode selects the driver features a case runs with.
type mode struct {
	suffix      string // golden-file suffix, "" for the sequential driver
	speculative bool
	adaptive    bool
}

var (
	seqMode   = mode{}
	specMode  = mode{suffix: "spec", speculative: true}
	adaptMode = mode{suffix: "adaptive", adaptive: true}
	bothMode  = mode{suffix: "spec-adaptive", speculative: true, adaptive: true}
)

// traceCase is one cell of the conformance matrix.
type traceCase struct {
	strategy  string
	objective string
	dim       int
	mode      mode
}

func (c traceCase) name() string {
	n := fmt.Sprintf("%s-%s", strings.ReplaceAll(c.strategy, "+", "_"), c.objective)
	if c.mode.suffix != "" {
		n += "-" + c.mode.suffix
	}
	return n
}

// nmFamily reports whether a registered strategy is an NM-family simplex
// policy (the speculative/adaptive driver modes apply only to those).
func nmFamily(name string) bool {
	s, err := core.LookupStrategy(name)
	if err != nil {
		return false
	}
	_, ok := s.(core.AlgorithmStrategy)
	return ok
}

// matrix builds the full case table from the live strategy registry, so a
// newly registered strategy automatically joins the harness (and fails the
// golden test until its golden is committed).
func matrix() []traceCase {
	var cases []traceCase
	for _, strat := range core.Strategies() {
		for _, obj := range objectives {
			cases = append(cases, traceCase{strat, obj.name, obj.dim, seqMode})
			if nmFamily(strat) {
				cases = append(cases, traceCase{strat, obj.name, obj.dim, specMode})
			}
		}
		// Adaptive modes: one objective per strategy keeps the matrix
		// readable; worker invariance of the gate is already fully exercised.
		if nmFamily(strat) {
			cases = append(cases,
				traceCase{strat, "rosenbrock", 3, adaptMode},
				traceCase{strat, "rosenbrock", 3, bothMode},
			)
		}
	}
	return cases
}

// defaultSeed is the noise seed of the golden matrix; the fuzz harness
// explores others.
const defaultSeed = 101

// caseSpace builds the sampling backend of one case at the given pool width
// and noise seed.
func caseSpace(tb testing.TB, c traceCase, workers int, seed int64) *sim.LocalSpace {
	tb.Helper()
	f, err := testfunc.ByName(c.objective)
	if err != nil {
		tb.Fatalf("objective %q: %v", c.objective, err)
	}
	return sim.NewLocalSpace(sim.LocalConfig{
		Dim:      c.dim,
		F:        f.F,
		Sigma0:   sim.ConstSigma(0.5),
		Seed:     seed,
		Parallel: true,
		Workers:  workers,
	})
}

// caseSpec builds the run description of one case. Budgets are small: the
// harness pins trajectories, it does not chase optima.
func caseSpec(c traceCase, trace func(core.TraceEvent)) core.RunSpec {
	cfg := core.DefaultConfig(core.PC) // NM strategies pin their own policy
	cfg.MaxIterations = 30
	cfg.Speculative = c.mode.speculative
	if c.mode.adaptive {
		cfg.AdaptiveHalfWidth = 0.25
	}
	cfg.Trace = trace
	return core.RunSpec{
		Strategy:   c.strategy,
		Config:     cfg,
		Seed:       7,
		Lo:         -3,
		Hi:         3,
		HasBox:     true,
		Particles:  8,
		SwarmIters: 12,
	}
}

// hex renders a float with exact (lossless) hexadecimal mantissa formatting,
// the representation the whole harness compares with: two traces match iff
// every float is bitwise identical.
func hex(v float64) string { return fmt.Sprintf("%x", v) }

func hexVec(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = hex(x)
	}
	return strings.Join(parts, ",")
}

// formatEvent renders one trace line.
func formatEvent(e core.TraceEvent) string {
	return fmt.Sprintf("iter=%d move=%s level=%d time=%s best=%s underlying=%s spread=%s x=[%s]\n",
		e.Iter, e.Move, e.ContractionLevel, hex(e.Time), hex(e.Best), hex(e.BestUnderlying), hex(e.Spread), hexVec(e.BestX))
}

// formatResult renders the terminal summary line.
func formatResult(res *core.Result) string {
	return fmt.Sprintf("result term=%s iters=%d evals=%d walltime=%s bestG=%s bestX=[%s] moves=%+v waits=%d resamples=%d adaptive=%d waste=%d\n",
		res.Termination, res.Iterations, res.Evaluations, hex(res.Walltime), hex(res.BestG), hexVec(res.BestX),
		res.Moves, res.WaitRounds, res.ResampleRounds, res.AdaptiveRounds, res.SpeculativeWaste)
}

// runTrace executes one case at one pool width and returns its rendered
// trace.
func runTrace(tb testing.TB, c traceCase, workers int) string {
	tb.Helper()
	space := caseSpace(tb, c, workers, defaultSeed)
	defer space.Close()
	var b strings.Builder
	spec := caseSpec(c, func(e core.TraceEvent) { b.WriteString(formatEvent(e)) })
	res, err := core.Run(context.Background(), space, spec)
	if err != nil {
		tb.Fatalf("%s (workers=%d): %v", c.name(), workers, err)
	}
	b.WriteString(formatResult(res))
	return b.String()
}

func goldenPath(c traceCase) string {
	return filepath.Join("testdata", c.name()+".golden")
}

// TestGoldenTraces is the conformance gate: every strategy, objective and
// driver mode must produce a bitwise-identical trace at every worker count,
// matching the committed golden.
func TestGoldenTraces(t *testing.T) {
	for _, c := range matrix() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			ref := runTrace(t, c, workerCounts[0])
			for _, w := range workerCounts[1:] {
				if got := runTrace(t, c, w); got != ref {
					t.Fatalf("trace at %d workers differs from %d workers:\n%s",
						w, workerCounts[0], firstDiff(ref, got))
				}
			}
			if *update {
				if err := os.WriteFile(goldenPath(c), []byte(ref), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(c))
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if ref != string(want) {
				t.Fatalf("trace differs from golden %s (regenerate with -update if intended):\n%s",
					goldenPath(c), firstDiff(string(want), ref))
			}
		})
	}
}

// firstDiff renders the first differing line of two traces.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}

// TestMatrixCoversRegistry fails when a registered strategy has no
// conformance case, so new strategies cannot bypass the harness.
func TestMatrixCoversRegistry(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range matrix() {
		covered[c.strategy] = true
	}
	for _, s := range core.Strategies() {
		if !covered[s] {
			t.Errorf("strategy %q has no conformance case", s)
		}
	}
}
