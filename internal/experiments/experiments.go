// Package experiments contains one driver per table and figure of the
// paper's evaluation (chapter 3). Each driver regenerates the corresponding
// artifact: it builds the workload, runs the algorithms under the same
// protocol the paper describes, and renders the result as text (tables via
// textplot.Table, figures via textplot.Histogram / textplot.XY).
//
// Every driver accepts Options so the full paper-scale protocol (100 initial
// simplex states, five inputs, three noise levels) and a quick smoke-scale
// variant (for tests and benchmarks) share one code path.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testfunc"
)

// Options control experiment scale.
type Options struct {
	// Quick reduces replica counts for smoke tests and benchmarks.
	Quick bool
	// Seed offsets every random stream, for replica studies.
	Seed int64
}

// seeds returns the number of initial simplex states to average over
// (the paper uses 100).
func (o Options) seeds() int {
	if o.Quick {
		return 8
	}
	return 100
}

// inputs returns the number of initial states for the Table 3.1/3.2 studies
// (the paper uses 5).
func (o Options) inputs() int {
	if o.Quick {
		return 2
	}
	return 5
}

// budget returns the virtual walltime budget per optimization run.
func (o Options) budget() float64 {
	if o.Quick {
		return 3e4
	}
	return 3e5
}

// Driver is a registered experiment: it renders its artifact as text.
type Driver struct {
	// Name is the CLI identifier (e.g. "Table3.1", "Fig3.5").
	Name string
	// Paper describes what the artifact shows.
	Paper string
	// Run produces the rendered artifact.
	Run func(Options) (string, error)
}

// Registry lists every reproducible table and figure in paper order.
func Registry() []Driver {
	return []Driver{
		{"Table3.1", "MN on noisy Rosenbrock: N/R/D for 5 inputs x k=2..5", Table31},
		{"Table3.2", "Anderson criterion: N/R/D for 5 inputs x k1=2^0..2^30", Table32},
		{"Table3.3", "MW processor allocation for d=20/50/100", Table33},
		{"Table3.4", "Initial and final TIP4P parameters under MN/PC/PC+MN", Table34},
		{"Table3.5", "Property values and errors vs TIP4P and experiment", Table35},
		{"Fig3.3", "The Rosenbrock banana surface", Fig33},
		{"Fig3.4", "Function value vs time: MN(k) vs Anderson(k1), 5 inputs", Fig34},
		{"Fig3.5", "log-ratio histograms MN/DET, PC/MN, PC+MN/PC (Rosenbrock)", Fig35},
		{"Fig3.6", "log-ratio histograms MN/DET, PC/MN, PC+MN/PC (Powell)", Fig36},
		{"Fig3.7", "PC confidence k=1 vs k=2", Fig37},
		{"Fig3.8", "PC error bars: c1 only vs c6 only", Fig38},
		{"Fig3.9", "PC error bars: c1 only vs all (c1-7)", Fig39},
		{"Fig3.10", "PC error bars: c2 only vs all (c1-7)", Fig310},
		{"Fig3.11", "PC error bars: c3 only vs all (c1-7)", Fig311},
		{"Fig3.12", "PC error bars: c4 only vs all (c1-7)", Fig312},
		{"Fig3.13", "PC error bars: c5 only vs all (c1-7)", Fig313},
		{"Fig3.14", "PC error bars: c6 only vs all (c1-7)", Fig314},
		{"Fig3.15", "PC error bars: c7 only vs all (c1-7)", Fig315},
		{"Fig3.16", "PC error bars: c1 only vs c136", Fig316},
		{"Fig3.17", "PC error bars: c136 vs all (c1-7)", Fig317},
		{"Fig3.18", "MW scale-up: d=20/50/100 time, steps, time/step", Fig318},
		{"Fig3.19", "Optimized gOO(r) vs TIP4P and experiment", Fig319},
		{"Fig3.20", "gOO(r) at successive optimization stages", Fig320},
	}
}

// ByName finds a registered driver.
func ByName(name string) (Driver, error) {
	for _, d := range Registry() {
		if d.Name == name {
			return d, nil
		}
	}
	return Driver{}, fmt.Errorf("experiments: unknown experiment %q (see Registry)", name)
}

// uniformSimplex draws d+1 vertices with coordinates uniform over [lo, hi)
// (the shared core.UniformSimplex draw).
func uniformSimplex(d int, lo, hi float64, rng *rand.Rand) [][]float64 {
	return core.UniformSimplex(d, lo, hi, rng)
}

// runSpec describes one optimization run of the computational study.
type runSpec struct {
	f       testfunc.Func
	dim     int
	sigma0  float64
	seed    int64
	start   [][]float64
	cfg     core.Config
	overTol float64 // termination tolerance (0 = run to budget)
}

// runMeasures is the paper's per-run performance record (section 3.2).
type runMeasures struct {
	N        int     // iterations to convergence
	R        float64 // |f(best) - fmin| on the noise-free surface
	D        float64 // distance of best vertex to the known solution
	Residual float64 // R clamped for log-ratio plots
	Walltime float64
	Result   *core.Result
}

// residualEps floors residuals so a run that lands exactly on the minimum
// still yields a finite log ratio.
const residualEps = 1e-12

// run executes one optimization and computes the N/R/D measures.
func run(spec runSpec) (*runMeasures, error) {
	space := sim.NewLocalSpace(sim.LocalConfig{
		Dim:      spec.dim,
		F:        spec.f.F,
		Sigma0:   sim.ConstSigma(spec.sigma0),
		Seed:     spec.seed,
		Parallel: true,
	})
	cfg := spec.cfg
	cfg.Tol = spec.overTol
	res, err := core.Run(context.Background(), space, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: spec.start})
	if err != nil {
		return nil, err
	}
	xmin := spec.f.Minimizer(spec.dim)
	r := spec.f.F(res.BestX) - spec.f.FMin
	resid := r
	if resid < residualEps {
		resid = residualEps
	}
	return &runMeasures{
		N:        res.Iterations,
		R:        r,
		D:        testfunc.Dist(res.BestX, xmin),
		Residual: resid,
		Walltime: res.Walltime,
		Result:   res,
	}, nil
}

// fmtG formats a float compactly for tables.
func fmtG(v float64) string { return fmt.Sprintf("%.4g", v) }

// sortedKeys returns map keys in sorted order (deterministic rendering).
func sortedKeys[K ~int | ~int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
