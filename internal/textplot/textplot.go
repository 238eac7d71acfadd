// Package textplot renders the paper's figures as ASCII: bar-chart
// histograms for the log-ratio distributions (Figs 3.5-3.17) and scatter/line
// plots with optional log axes for the convergence traces (Figs 3.4, 3.18).
package textplot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
)

// HistogramOptions tune histogram rendering.
type HistogramOptions struct {
	// Width is the maximum bar length in characters (default 50).
	Width int
	// Title is printed above the plot when non-empty.
	Title string
	// XLabel names the binned quantity.
	XLabel string
}

// Histogram renders h as a horizontal bar chart, one row per bin.
func Histogram(h *stats.Histogram, opt HistogramOptions) string {
	if opt.Width <= 0 {
		opt.Width = 50
	}
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	maxCount := h.MaxCount()
	if maxCount == 0 {
		maxCount = 1
	}
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Lo + float64(i)*binW
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(maxCount)*float64(opt.Width))))
		fmt.Fprintf(&b, "[%8.2f,%8.2f) %4d |%s\n", lo, lo+binW, c, bar)
	}
	if opt.XLabel != "" {
		fmt.Fprintf(&b, "x: %s, n=%d\n", opt.XLabel, h.N)
	}
	return b.String()
}

// Series is one named data series for an XY plot.
type Series struct {
	// Name appears in the legend.
	Name string
	// X, Y are the data coordinates (equal length).
	X, Y []float64
}

// XYOptions tune XY plot rendering.
type XYOptions struct {
	// Width and Height are the plot area size in characters (defaults
	// 64x20).
	Width, Height int
	// LogX / LogY select logarithmic axes; non-positive values are dropped.
	LogX, LogY bool
	// Title is printed above the plot when non-empty.
	Title string
	// XLabel / YLabel name the axes.
	XLabel, YLabel string
}

// markers are the plot characters, one per series in order (cycling).
var markers = []byte{'*', '+', 'o', 'x', '@', '%', '&', '~', '^', '='}

// XY renders the series on a shared grid with axis ranges spanning all data.
func XY(series []Series, opt XYOptions) string {
	if opt.Width <= 0 {
		opt.Width = 64
	}
	if opt.Height <= 0 {
		opt.Height = 20
	}

	tx := func(v float64) (float64, bool) {
		if opt.LogX {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}
	ty := func(v float64) (float64, bool) {
		if opt.LogY {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky || math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		return "(no plottable data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i := range s.X {
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky || math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(opt.Width-1)))
			row := opt.Height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(opt.Height-1)))
			if col >= 0 && col < opt.Width && row >= 0 && row < opt.Height {
				grid[row][col] = marker
			}
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	axisFmt := func(v float64, log bool) string {
		if log {
			return fmt.Sprintf("1e%.1f", v)
		}
		return fmt.Sprintf("%.3g", v)
	}
	for r, row := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%10s", axisFmt(ymax, opt.LogY))
		case opt.Height - 1:
			label = fmt.Sprintf("%10s", axisFmt(ymin, opt.LogY))
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", opt.Width))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", opt.Width-6,
		axisFmt(xmin, opt.LogX), axisFmt(xmax, opt.LogX))
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "x: %s   y: %s\n", opt.XLabel, opt.YLabel)
	}
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows with aligned columns; header may be nil.
func Table(header []string, rows [][]string) string {
	widths := make([]int, 0)
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if header != nil {
		grow(header)
	}
	for _, r := range rows {
		grow(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if header != nil {
		writeRow(header)
		sep := make([]string, len(header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
