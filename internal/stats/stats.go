// Package stats provides the summary statistics and histogram machinery the
// experiment drivers use to reproduce the paper's figures: distributions of
// log10 minimum-value ratios over 100 initial simplex states (Figs 3.5-3.17)
// and the N/R/D aggregate measures of Tables 3.1-3.2.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for fewer than two
// values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Median returns the median of xs (NaN for empty input).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs by linear interpolation, q in [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FractionBelow returns the fraction of values strictly below the threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// LogRatio computes log10(a/b) with both values floored at eps, the transform
// the paper applies to pairs of minimum function values ("these ratios are
// presented on a logarithmic scale, so a value of zero means that the two
// methods performed equally"). Values below eps are clamped so a method that
// hits the exact minimum yields a finite, strongly negative ratio.
func LogRatio(a, b, eps float64) float64 {
	if a < eps {
		a = eps
	}
	if b < eps {
		b = eps
	}
	return math.Log10(a / b)
}

// Histogram is a fixed-width binned count over [Lo, Hi); values outside the
// range are clamped into the first/last bin, as the figures do.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram creates a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add counts one value.
func (h *Histogram) Add(x float64) {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.N++
}

// AddAll counts every value.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Welford is a streaming mean/variance accumulator. It is the online-moment
// engine behind optroot's estimate of a batch cost's variance, the paper's
// regime where sigma0 "is not known ahead of time": observations fold in one
// at a time, and the running moments are exact (no catastrophic
// cancellation).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
//
//optlint:noalloc
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN before any observation).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance (NaN below two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the running mean, StdDev/sqrt(n)
// (NaN below two observations).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}
