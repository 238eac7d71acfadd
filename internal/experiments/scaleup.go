package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/mw"
	"repro/internal/noise"
	"repro/internal/testfunc"
	"repro/internal/textplot"
)

// scaleDims are the dimensions of the section 3.4 scale-up study.
func scaleDims(opt Options) []int {
	if opt.Quick {
		return []int{20, 50}
	}
	return []int{20, 50, 100}
}

// Table33 reproduces the processor-allocation table: for each d, the number
// of workers, servers, clients and total cores, verified against the live
// deployment's process accounting.
func Table33(opt Options) (string, error) {
	header := []string{"d", "workers (d+3)", "servers (d+3)", "clients (d+3)Ns", "total (dNs+3Ns+2d+7)", "live"}
	var rows [][]string
	for _, d := range []int{20, 50, 100} {
		space, err := mw.NewSpace(mw.SpaceConfig{
			Dim: d,
			Ns:  1,
			NewSystem: func(rank, sys int) mw.SystemEvaluator {
				return &mw.FuncSystem{F: testfunc.Rosenbrock, Rng: noise.NewSource(int64(rank))}
			},
		})
		if err != nil {
			return "", err
		}
		live := space.Processes().Total()
		space.Shutdown()
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", d+3),
			fmt.Sprintf("%d", d+3),
			fmt.Sprintf("%d", d+3),
			fmt.Sprintf("%d", mw.ExpectedProcesses(d, 1)),
			fmt.Sprintf("%d", live),
		})
	}
	return "Table 3.3: processor allocation for Rosenbrock optimization using MW (Ns=1)\n" +
		textplot.Table(header, rows), nil
}

// ScaleRun is one scale-up measurement.
type ScaleRun struct {
	// D is the dimension.
	D int
	// Times / Values / Steps are the per-iteration trace.
	Times, Values []float64
	Steps         []float64
	// TimePerStep is total walltime / iterations.
	TimePerStep float64
	// Processes is the live deployment size.
	Processes int64
}

// ScaleUpRuns executes the section 3.4 protocol: Rosenbrock in d dimensions
// over the full MW deployment (Ns = 1), with the MN algorithm and a mild
// noise level, recording the convergence trace and the time-per-step cost.
func ScaleUpRuns(opt Options) ([]*ScaleRun, error) {
	var out []*ScaleRun
	iters := 120
	if opt.Quick {
		iters = 25
	}
	for _, d := range scaleDims(opt) {
		space, err := mw.NewSpace(mw.SpaceConfig{
			Dim: d,
			Ns:  1,
			NewSystem: func(rank, sys int) mw.SystemEvaluator {
				return &mw.FuncSystem{
					F:      testfunc.Rosenbrock,
					Sigma0: func([]float64) float64 { return 1 },
					Rng:    noise.NewSource(opt.Seed + int64(rank*31)),
				}
			},
		})
		if err != nil {
			return nil, err
		}
		sr := &ScaleRun{D: d, Processes: int64(space.Processes().Total())}

		rng := rand.New(rand.NewSource(opt.Seed + int64(d)))
		start := uniformSimplex(d, -3, 3, rng)
		cfg := core.DefaultConfig(core.MN)
		cfg.MaxIterations = iters
		cfg.Tol = 0
		cfg.MaxWalltime = 0
		// The per-step master bookkeeping and file I/O grows with d
		// (section 3.4 attributes the mild degradation to "the I/O at the
		// simplex and vertex levels").
		cfg.OverheadBase = 0.5
		cfg.OverheadPerDim = 0.05
		cfg.Trace = func(e core.TraceEvent) {
			sr.Times = append(sr.Times, e.Time)
			sr.Values = append(sr.Values, math.Max(e.Best, 1e-4))
			sr.Steps = append(sr.Steps, float64(e.Iter))
		}
		res, err := core.Run(context.Background(), space, core.RunSpec{Strategy: cfg.Algorithm.String(), Config: cfg, Initial: start})
		space.Shutdown()
		if err != nil {
			return nil, err
		}
		sr.TimePerStep = res.Walltime / float64(res.Iterations)
		out = append(out, sr)
	}
	return out, nil
}

// Fig318 renders the three scale-up panels: function value vs time, function
// value vs steps, and time-per-step vs dimension.
func Fig318(opt Options) (string, error) {
	runs, err := ScaleUpRuns(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 3.18: MW scale-up (Rosenbrock over the full deployment, Ns=1)\n\n")

	var timeSeries, stepSeries []textplot.Series
	var ds, tps []float64
	for _, r := range runs {
		name := fmt.Sprintf("d=%d (%d procs)", r.D, r.Processes)
		timeSeries = append(timeSeries, textplot.Series{Name: name, X: r.Times, Y: r.Values})
		stepSeries = append(stepSeries, textplot.Series{Name: name, X: r.Steps, Y: r.Values})
		ds = append(ds, float64(r.D))
		tps = append(tps, r.TimePerStep)
	}
	b.WriteString(textplot.XY(timeSeries, textplot.XYOptions{
		Title: "(a) best value vs time", LogY: true, XLabel: "time (s)", YLabel: "g(best)",
	}))
	b.WriteString("\n")
	b.WriteString(textplot.XY(stepSeries, textplot.XYOptions{
		Title: "(b) best value vs steps", LogY: true, XLabel: "step", YLabel: "g(best)",
	}))
	b.WriteString("\n")
	b.WriteString(textplot.XY([]textplot.Series{{Name: "time/step", X: ds, Y: tps}},
		textplot.XYOptions{Title: "(c) time per simplex step vs dimension", XLabel: "d", YLabel: "s/step", Height: 10}))
	return b.String(), nil
}
