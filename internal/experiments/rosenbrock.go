package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/testfunc"
	"repro/internal/textplot"
)

// table31Sigma is the controlled noise level of the Table 3.1/3.2 study: the
// paper chose sigma0 "so that simplex updates would occur on timescales of
// ~10^4 seconds in the late stages" — with convergence-zone separations of
// order 0.1, sigma0 = 10 puts the late-stage waits at t ~ (sigma0/0.1)^2 =
// 10^4 virtual seconds.
const table31Sigma = 10

// table31Start draws the paper's initial states for the 3-d study: "each of
// the three coordinates for each of the four vertices was uniformly
// distributed over [-6, 3]".
func table31Start(input int, seedBase int64) [][]float64 {
	rng := rand.New(rand.NewSource(seedBase + int64(input)*101))
	return uniformSimplex(3, -6, 3, rng)
}

// Table31Rows computes the MN rows: for each input and each k in {2,3,4,5}
// the N, R, D measures. Exposed (with Table32Rows) so benchmarks and tests
// can assert on the numbers behind the rendering.
func Table31Rows(opt Options) (map[int]map[float64]*runMeasures, error) {
	rosen, _ := testfunc.ByName("rosenbrock")
	out := make(map[int]map[float64]*runMeasures)
	ks := []float64{2, 3, 4, 5}
	for input := 1; input <= opt.inputs(); input++ {
		out[input] = make(map[float64]*runMeasures)
		for _, k := range ks {
			cfg := core.DefaultConfig(core.MN)
			cfg.MNK = k
			cfg.MaxWalltime = opt.budget()
			cfg.MaxIterations = 3000
			m, err := run(runSpec{
				f: rosen, dim: 3, sigma0: table31Sigma,
				seed:    opt.Seed + int64(input*1000) + int64(k),
				start:   table31Start(input, opt.Seed),
				cfg:     cfg,
				overTol: 0.5,
			})
			if err != nil {
				return nil, err
			}
			out[input][k] = m
		}
	}
	return out, nil
}

// Table31 renders "Results of optimization using MN algorithm with
// controlled noise": N, R, D for five inputs at k = 2..5.
func Table31(opt Options) (string, error) {
	rows, err := Table31Rows(opt)
	if err != nil {
		return "", err
	}
	return renderNRD("Table 3.1: MN algorithm with controlled noise (Rosenbrock 3-d)",
		"k", []float64{2, 3, 4, 5}, rows), nil
}

// Table32Rows computes the Anderson-criterion rows for k1 in
// {2^0, 2^10, 2^20, 2^30} at k2 = 0.
func Table32Rows(opt Options) (map[int]map[float64]*runMeasures, error) {
	rosen, _ := testfunc.ByName("rosenbrock")
	out := make(map[int]map[float64]*runMeasures)
	k1s := []float64{1, 1 << 10, 1 << 20, 1 << 30}
	for input := 1; input <= opt.inputs(); input++ {
		out[input] = make(map[float64]*runMeasures)
		for _, k1 := range k1s {
			cfg := core.DefaultConfig(core.AndersonNM)
			cfg.K1 = k1
			cfg.K2 = 0
			cfg.MaxWalltime = opt.budget()
			cfg.MaxIterations = 3000
			m, err := run(runSpec{
				f: rosen, dim: 3, sigma0: table31Sigma,
				seed:    opt.Seed + int64(input*1000) + int64(math.Log2(k1)),
				start:   table31Start(input, opt.Seed),
				cfg:     cfg,
				overTol: 0.5,
			})
			if err != nil {
				return nil, err
			}
			out[input][k1] = m
		}
	}
	return out, nil
}

// Table32 renders "Results of optimization using Anderson algorithm with
// controlled noise".
func Table32(opt Options) (string, error) {
	rows, err := Table32Rows(opt)
	if err != nil {
		return "", err
	}
	return renderNRD("Table 3.2: Anderson criterion with controlled noise (Rosenbrock 3-d)",
		"k1", []float64{1, 1 << 10, 1 << 20, 1 << 30}, rows), nil
}

func renderNRD(title, kName string, ks []float64, rows map[int]map[float64]*runMeasures) string {
	kLabel := func(k float64) string {
		if kName == "k1" && k >= 1024 {
			return fmt.Sprintf("2^%d", int(math.Round(math.Log2(k))))
		}
		return fmt.Sprintf("%g", k)
	}
	header := []string{"input"}
	for _, metric := range []string{"N", "R", "D"} {
		for _, k := range ks {
			header = append(header, fmt.Sprintf("%s(%s=%s)", metric, kName, kLabel(k)))
		}
	}
	var body [][]string
	for _, input := range sortedKeys(rows) {
		row := []string{fmt.Sprintf("%d", input)}
		for _, k := range ks {
			row = append(row, fmt.Sprintf("%d", rows[input][k].N))
		}
		for _, k := range ks {
			row = append(row, fmtG(rows[input][k].R))
		}
		for _, k := range ks {
			row = append(row, fmtG(rows[input][k].D))
		}
		body = append(body, row)
	}
	return title + "\n" + textplot.Table(header, body)
}

// Fig33 renders the Rosenbrock surface (Figure 3.3) as a log-scaled ASCII
// height map over [-2, 2.5] x [-1, 2].
func Fig33(Options) (string, error) {
	const w, h = 64, 22
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	b.WriteString("Fig 3.3: Rosenbrock banana surface, log10(1+f) over x in [-2,2.5], y in [-1,2]\n")
	for row := 0; row < h; row++ {
		y := 2 - 3*float64(row)/float64(h-1)
		for col := 0; col < w; col++ {
			x := -2 + 4.5*float64(col)/float64(w-1)
			v := math.Log10(1 + testfunc.Rosenbrock([]float64{x, y}))
			idx := int(v / 4.3 * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	b.WriteString("(valley floor ' ' traces y = x^2 toward the minimum at (1,1))\n")
	return b.String(), nil
}

// Fig34 renders the function-value-vs-time traces: MN at k = 2..5 (left
// column of the paper's figure) and the Anderson criterion at k1 = 2^0,
// 2^10, 2^20, 2^30 (right column), one pair of plots per input.
func Fig34(opt Options) (string, error) {
	rosen, _ := testfunc.ByName("rosenbrock")
	var b strings.Builder
	b.WriteString("Fig 3.4: best function value vs time, MN (left params) vs Anderson (right params)\n\n")
	for input := 1; input <= opt.inputs(); input++ {
		start := table31Start(input, opt.Seed)

		var mnSeries []textplot.Series
		for _, k := range []float64{2, 3, 4, 5} {
			cfg := core.DefaultConfig(core.MN)
			cfg.MNK = k
			cfg.MaxWalltime = opt.budget()
			cfg.MaxIterations = 2000
			var xs, ys []float64
			cfg.Trace = func(e core.TraceEvent) {
				xs = append(xs, e.Time)
				ys = append(ys, math.Max(e.BestUnderlying, 1e-4))
			}
			if _, err := run(runSpec{
				f: rosen, dim: 3, sigma0: table31Sigma,
				seed:  opt.Seed + int64(input*999) + int64(k),
				start: start, cfg: cfg, overTol: 0.5,
			}); err != nil {
				return "", err
			}
			mnSeries = append(mnSeries, textplot.Series{Name: fmt.Sprintf("MN k=%g", k), X: xs, Y: ys})
		}
		b.WriteString(textplot.XY(mnSeries, textplot.XYOptions{
			Title:  fmt.Sprintf("input %d: MN", input),
			LogX:   true,
			LogY:   true,
			XLabel: "time (s)", YLabel: "f(best)",
		}))
		b.WriteString("\n")

		var anSeries []textplot.Series
		for _, k1 := range []float64{1, 1 << 10, 1 << 20, 1 << 30} {
			cfg := core.DefaultConfig(core.AndersonNM)
			cfg.K1 = k1
			cfg.MaxWalltime = opt.budget()
			cfg.MaxIterations = 2000
			var xs, ys []float64
			cfg.Trace = func(e core.TraceEvent) {
				xs = append(xs, e.Time)
				ys = append(ys, math.Max(e.BestUnderlying, 1e-4))
			}
			if _, err := run(runSpec{
				f: rosen, dim: 3, sigma0: table31Sigma,
				seed:  opt.Seed + int64(input*999) + int64(math.Log2(k1)),
				start: start, cfg: cfg, overTol: 0.5,
			}); err != nil {
				return "", err
			}
			anSeries = append(anSeries, textplot.Series{Name: fmt.Sprintf("Anderson k1=2^%d", int(math.Log2(k1))), X: xs, Y: ys})
		}
		b.WriteString(textplot.XY(anSeries, textplot.XYOptions{
			Title:  fmt.Sprintf("input %d: Anderson criterion", input),
			LogX:   true,
			LogY:   true,
			XLabel: "time (s)", YLabel: "f(best)",
		}))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// pairComparison runs two configurations over the same set of initial
// simplex states and returns the log10 ratios of the noise-free residuals
// the paper histograms (negative = numerator method came closer to the
// minimum).
func pairComparison(opt Options, f testfunc.Func, dim int, sigma0 float64,
	num, den core.Config, lo, hi float64) ([]float64, []*runMeasures, []*runMeasures, error) {

	n := opt.seeds()
	ratios := make([]float64, 0, n)
	numM := make([]*runMeasures, 0, n)
	denM := make([]*runMeasures, 0, n)
	for s := 0; s < n; s++ {
		rng := rand.New(rand.NewSource(opt.Seed + int64(s)*7919))
		start := uniformSimplex(dim, lo, hi, rng)
		seed := opt.Seed + int64(s)*104729
		a, err := run(runSpec{f: f, dim: dim, sigma0: sigma0, seed: seed, start: start, cfg: num})
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := run(runSpec{f: f, dim: dim, sigma0: sigma0, seed: seed, start: start, cfg: den})
		if err != nil {
			return nil, nil, nil, err
		}
		ratios = append(ratios, stats.LogRatio(a.Residual, b.Residual, residualEps))
		numM = append(numM, a)
		denM = append(denM, b)
	}
	return ratios, numM, denM, nil
}

// comparisonConfig builds the standard study configuration for an algorithm:
// no tolerance cut, fixed virtual-time budget, capped iterations.
func comparisonConfig(alg core.Algorithm, opt Options) core.Config {
	cfg := core.DefaultConfig(alg)
	cfg.MaxWalltime = opt.budget()
	cfg.MaxIterations = 3000
	cfg.Tol = 0
	return cfg
}

// ratioHistogram renders one panel of a Fig 3.5-style comparison.
func ratioHistogram(title string, ratios []float64) string {
	h := stats.NewHistogram(-8, 8, 16)
	h.AddAll(ratios)
	out := textplot.Histogram(h, textplot.HistogramOptions{
		Title:  title,
		XLabel: "log10(min num / min den)",
	})
	out += fmt.Sprintf("median=%.2f, frac(num better)=%.2f, frac(tie or better)=%.2f\n",
		stats.Median(ratios), stats.FractionBelow(ratios, 0), stats.FractionBelow(ratios, 0.5))
	return out
}

// fig356 produces the three-panel, three-noise-level comparison of Figs
// 3.5/3.6 for the given test function.
func fig356(opt Options, fname string, lo, hi float64, figName string) (string, error) {
	f, err := testfunc.ByName(fname)
	if err != nil {
		return "", err
	}
	noises := []float64{1, 100, 1000}
	if opt.Quick {
		noises = []float64{1000}
	}
	panels := []struct {
		title    string
		num, den core.Algorithm
	}{
		{"(a) MN vs DET", core.MN, core.DET},
		{"(b) PC vs MN", core.PC, core.MN},
		{"(c) PC+MN vs PC", core.PCMN, core.PC},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: minimum-ratio distributions over %d initial states (%s, 4-d)\n\n",
		figName, opt.seeds(), fname)
	for _, p := range panels {
		for _, sigma := range noises {
			ratios, _, _, err := pairComparison(opt, f, 4, sigma,
				comparisonConfig(p.num, opt), comparisonConfig(p.den, opt), lo, hi)
			if err != nil {
				return "", err
			}
			b.WriteString(ratioHistogram(fmt.Sprintf("%s, sigma0=%g", p.title, sigma), ratios))
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// Fig35 reproduces the Rosenbrock comparison histograms.
func Fig35(opt Options) (string, error) {
	return fig356(opt, "rosenbrock", -5, 5, "Fig 3.5")
}

// Fig36 reproduces the Powell comparison histograms.
func Fig36(opt Options) (string, error) {
	return fig356(opt, "powell", -5, 5, "Fig 3.6")
}

// Fig37 compares PC at confidence k=1 against k=2 at sigma0=1000.
func Fig37(opt Options) (string, error) {
	rosen, _ := testfunc.ByName("rosenbrock")
	k1 := comparisonConfig(core.PC, opt)
	k1.K = 1
	k2 := comparisonConfig(core.PC, opt)
	k2.K = 2
	ratios, _, _, err := pairComparison(opt, rosen, 4, 1000, k1, k2, -5, 5)
	if err != nil {
		return "", err
	}
	return ratioHistogram("Fig 3.7: PC k=1 vs k=2, sigma0=1000", ratios), nil
}

// conditionAblation renders the histogram of ablationRatios.
func conditionAblation(opt Options, title string, maskNum, maskDen core.ConditionMask) (string, error) {
	ratios, err := ablationRatios(opt, maskNum, maskDen)
	if err != nil {
		return "", err
	}
	return ratioHistogram(title, ratios), nil
}

// ablationRatios returns the per-seed log-ratios of two PC error-bar masks
// under the Fig 3.8-3.17 protocol (Rosenbrock 4-d, sigma0 = 1000).
func ablationRatios(opt Options, maskNum, maskDen core.ConditionMask) ([]float64, error) {
	rosen, _ := testfunc.ByName("rosenbrock")
	num := comparisonConfig(core.PC, opt)
	num.ErrorBars = maskNum
	den := comparisonConfig(core.PC, opt)
	den.ErrorBars = maskDen
	ratios, _, _, err := pairComparison(opt, rosen, 4, 1000, num, den, -5, 5)
	return ratios, err
}

// Fig38 compares error bars in condition 1 only against condition 6 only.
func Fig38(opt Options) (string, error) {
	return conditionAblation(opt, "Fig 3.8: PC error bar in c1 only vs c6 only, sigma0=1000",
		core.Conditions(1), core.Conditions(6))
}

// figSingleVsAll generates Figs 3.9-3.15: condition N alone vs all seven.
func figSingleVsAll(opt Options, fig string, n int) (string, error) {
	return conditionAblation(opt,
		fmt.Sprintf("%s: PC error bar in c%d only vs all conditions (c1-7), sigma0=1000", fig, n),
		core.Conditions(n), core.AllConditions)
}

// Fig39 through Fig315 reproduce the single-condition-vs-strict ablations.
func Fig39(opt Options) (string, error)  { return figSingleVsAll(opt, "Fig 3.9", 1) }
func Fig310(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.10", 2) }
func Fig311(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.11", 3) }
func Fig312(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.12", 4) }
func Fig313(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.13", 5) }
func Fig314(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.14", 6) }
func Fig315(opt Options) (string, error) { return figSingleVsAll(opt, "Fig 3.15", 7) }

// Fig316 compares c1 alone against the c136 combination.
func Fig316(opt Options) (string, error) {
	return conditionAblation(opt, "Fig 3.16: PC error bar in c1 only vs c136, sigma0=1000",
		core.Conditions(1), core.Conditions(1, 3, 6))
}

// Fig317 compares c136 against the strict c1-7.
func Fig317(opt Options) (string, error) {
	return conditionAblation(opt, "Fig 3.17: PC error bar in c136 vs all conditions (c1-7), sigma0=1000",
		core.Conditions(1, 3, 6), core.AllConditions)
}
