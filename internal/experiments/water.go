package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mw"
	"repro/internal/textplot"
	"repro/internal/water"
)

// waterNoiseFactor scales the property sampling noise of the surrogate
// engine during the application study.
const waterNoiseFactor = 1.0

// WaterInitialSimplex returns the deliberately poor starting vertices of the
// application study ("parameter values that gave poor and unphysical
// results", Table 3.4a).
func WaterInitialSimplex() [][]float64 {
	return [][]float64{
		{0.200, 3.00, 0.54},
		{0.180, 3.40, 0.45},
		{0.155, 3.25, 0.52},
		{0.190, 2.80, 0.60},
	}
}

// WaterResult is one algorithm's outcome on the TIP4P reparameterization.
type WaterResult struct {
	// Alg is the decision policy used.
	Alg core.Algorithm
	// Final is the best parameter set at termination.
	Final water.Params
	// FinalSimplex holds every final vertex (the paper tabulates all).
	FinalSimplex [][]float64
	// Steps is the simplex iteration count.
	Steps int
	// Cost is the noise-free eq 3.4 cost at Final.
	Cost float64
	// Stages snapshots the best vertex at 0%/33%/66%/100% of the run, for
	// the Figure 3.20 curves.
	Stages []water.Params
}

// WaterStudy runs the section 3.5 application for the given algorithm over
// the full MW deployment (master, d+3 vertex workers, servers, clients) with
// the surrogate property engine.
func WaterStudy(opt Options, alg core.Algorithm) (*WaterResult, error) {
	space, err := mw.NewSpace(mw.SpaceConfig{
		Dim: 3,
		Ns:  1,
		NewSystem: func(rank, sys int) mw.SystemEvaluator {
			return water.NewSurrogate(waterNoiseFactor, opt.Seed+int64(rank*131+sys))
		},
	})
	if err != nil {
		return nil, err
	}
	defer space.Shutdown()

	cfg := core.DefaultConfig(alg)
	cfg.MaxWalltime = opt.budget()
	cfg.MaxIterations = 400
	restarts := 3
	if opt.Quick {
		cfg.MaxIterations = 80
		restarts = 2
	}
	cfg.Tol = 0.002

	var trace []core.TraceEvent
	cfg.Trace = func(e core.TraceEvent) { trace = append(trace, e) }

	// The cost valley around the optimum is long and gently curved (like
	// the physical parameter correlations of a water model); simplex
	// restarts around the incumbent (section 1.3.5.1) prevent premature
	// collapse far from the basin floor.
	res, err := core.Run(context.Background(), space, core.RunSpec{
		Strategy:     cfg.Algorithm.String(),
		Config:       cfg,
		Initial:      WaterInitialSimplex(),
		Restarts:     restarts,
		RestartScale: []float64{0.01, 0.02, 0.005}, // natural (eps, sigma, qH) scales
	})
	if err != nil {
		return nil, err
	}

	wr := &WaterResult{
		Alg:          alg,
		Final:        water.FromVec(res.BestX),
		FinalSimplex: res.FinalSimplex,
		Steps:        res.Iterations,
		Cost:         water.NoiseFreeCost(res.BestX),
	}
	wr.Stages = append(wr.Stages, water.FromVec(WaterInitialSimplex()[0]))
	for _, frac := range []float64{1. / 3, 2. / 3, 1} {
		idx := int(frac*float64(len(trace))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(trace) {
			idx = len(trace) - 1
		}
		if len(trace) > 0 {
			wr.Stages = append(wr.Stages, water.FromVec(trace[idx].BestX))
		}
	}
	return wr, nil
}

// waterAlgs lists the application-study algorithms in paper order.
var waterAlgs = []core.Algorithm{core.MN, core.PC, core.PCMN}

// Table34 renders the initial parameters and the final parameters obtained
// with each algorithm (the paper's Table 3.4 a-d).
func Table34(opt Options) (string, error) {
	var b strings.Builder
	b.WriteString("Table 3.4: initial and final TIP4P parameters (eps kcal/mol, sigma A, qH e)\n\n")
	b.WriteString("(a) Initial parameters\n")
	var rows [][]string
	for _, v := range WaterInitialSimplex() {
		p := water.FromVec(v)
		rows = append(rows, []string{
			fmt.Sprintf("%.4f", p.Epsilon), fmt.Sprintf("%.3f", p.Sigma), fmt.Sprintf("%.3f", p.QH),
		})
	}
	b.WriteString(textplot.Table([]string{"eps", "sigma", "qH"}, rows))

	published := water.TIP4PParams()
	for i, alg := range waterAlgs {
		res, err := WaterStudy(opt, alg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n(%c) Final vertices with %s after %d steps (published TIP4P: %s)\n",
			'b'+i, alg, res.Steps, published)
		var frows [][]string
		for _, v := range res.FinalSimplex {
			p := water.FromVec(v)
			frows = append(frows, []string{
				fmt.Sprintf("%.4f", p.Epsilon), fmt.Sprintf("%.4f", p.Sigma), fmt.Sprintf("%.4f", p.QH),
			})
		}
		b.WriteString(textplot.Table([]string{"eps", "sigma", "qH"}, frows))
	}
	return b.String(), nil
}

// propertyReport samples the surrogate properties at theta long enough for
// tight error bars and returns values and one-sigma errors.
func propertyReport(theta water.Params, seed int64) (vals, errs [water.NumProperties]float64) {
	s := water.NewSurrogate(waterNoiseFactor, seed)
	s.Start(theta.Vec())
	s.Sample(400) // sigma = sigma0/20
	return s.PropertyEstimates()
}

// Table35 renders the property comparison table (the second "Table 3.4" of
// the paper): property value and error under MN/PC/PC+MN, against TIP4P and
// experiment.
func Table35(opt Options) (string, error) {
	type col struct {
		name string
		vals [water.NumProperties]float64
		errs [water.NumProperties]float64
	}
	var cols []col
	for _, alg := range waterAlgs {
		res, err := WaterStudy(opt, alg)
		if err != nil {
			return "", err
		}
		v, e := propertyReport(res.Final, opt.Seed+int64(alg)*7)
		cols = append(cols, col{name: alg.String(), vals: v, errs: e})
	}
	tip4pProps := water.NoiseFreeProperties(water.TIP4PParams())

	header := []string{"Pr"}
	for _, c := range cols {
		header = append(header, c.name+" V", c.name+" E")
	}
	header = append(header, "TIP4P V", "EXP V")
	var rows [][]string
	for p := water.Property(0); p < water.NumProperties; p++ {
		row := []string{p.String()}
		for _, c := range cols {
			row = append(row, fmtG(c.vals[p]), fmtG(c.errs[p]))
		}
		row = append(row, fmtG(tip4pProps[p]), fmtG(water.Targets[p]))
		rows = append(rows, row)
	}
	return "Table 3.5 (paper's second Table 3.4): properties under MN/PC/PC+MN vs TIP4P and experiment\n" +
		textplot.Table(header, rows), nil
}

// gooSeries samples a gOO(r) curve for plotting.
func gooSeries(name string, theta *water.Params) textplot.Series {
	rs, gs := water.RDFCurve(water.PropGOO, theta, 2.0, 8.0, 60)
	return textplot.Series{Name: name, X: rs, Y: gs}
}

// Fig319 renders the oxygen-oxygen RDF panels: (a) the poor initial
// parameter sets, then the optimized MN/PC/PC+MN models against TIP4P and
// experiment.
func Fig319(opt Options) (string, error) {
	var b strings.Builder
	b.WriteString("Fig 3.19: oxygen-oxygen radial distribution functions\n\n")

	series := []textplot.Series{gooSeries("experiment", nil)}
	for i, v := range WaterInitialSimplex() {
		p := water.FromVec(v)
		series = append(series, gooSeries(fmt.Sprintf("vertex %d", i+1), &p))
	}
	b.WriteString(textplot.XY(series, textplot.XYOptions{
		Title: "(a) non-optimal initial parameters", XLabel: "rOO (A)", YLabel: "gOO(r)",
	}))
	b.WriteString("\n")

	tip4p := water.TIP4PParams()
	for i, alg := range waterAlgs {
		res, err := WaterStudy(opt, alg)
		if err != nil {
			return "", err
		}
		panel := []textplot.Series{
			gooSeries("experiment", nil),
			gooSeries("TIP4P", &tip4p),
			gooSeries("optimized", &res.Final),
		}
		b.WriteString(textplot.XY(panel, textplot.XYOptions{
			Title:  fmt.Sprintf("(%c) parameters from the %s algorithm", 'b'+i, alg),
			XLabel: "rOO (A)", YLabel: "gOO(r)",
		}))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Fig320 renders gOO(r) at successive stages of the MN optimization.
func Fig320(opt Options) (string, error) {
	res, err := WaterStudy(opt, core.MN)
	if err != nil {
		return "", err
	}
	series := []textplot.Series{gooSeries("experiment", nil)}
	labels := []string{"initial", "1/3 of run", "2/3 of run", "converged"}
	for i, st := range res.Stages {
		stage := st
		series = append(series, gooSeries(labels[i%len(labels)], &stage))
	}
	return textplot.XY(series, textplot.XYOptions{
		Title:  "Fig 3.20: gOO(r) across stages of the MN simplex optimization",
		XLabel: "rOO (A)", YLabel: "gOO(r)",
	}), nil
}
