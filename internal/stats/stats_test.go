package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Median(nil)) || !math.IsNaN(FractionBelow(nil, 0)) {
		t.Fatal("empty-input statistics should be NaN")
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Median(xs); m != 2.5 {
		t.Fatalf("Median = %v, want 2.5", m)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("Q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("Q1 = %v, want 4", q)
	}
	if q := Quantile(xs, 0.25); math.Abs(q-1.75) > 1e-12 {
		t.Fatalf("Q.25 = %v, want 1.75", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMinMaxFraction(t *testing.T) {
	xs := []float64{-1, 5, 2}
	if f := FractionBelow(xs, 2); math.Abs(f-1.0/3.0) > 1e-12 {
		t.Fatalf("FractionBelow = %v", f)
	}
}

func TestLogRatio(t *testing.T) {
	if r := LogRatio(100, 1, 1e-12); r != 2 {
		t.Fatalf("LogRatio(100,1) = %v, want 2", r)
	}
	if r := LogRatio(1, 100, 1e-12); r != -2 {
		t.Fatalf("LogRatio(1,100) = %v, want -2", r)
	}
	if r := LogRatio(0, 1e-6, 1e-12); r != -6 {
		t.Fatalf("clamped LogRatio = %v, want -6", r)
	}
	if r := LogRatio(0, 0, 1e-12); r != 0 {
		t.Fatalf("LogRatio(0,0) = %v, want 0", r)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5, 9.99, -3, 100})
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10); -3 clamps into bin 0, 100 into bin 4.
	want := []int{3, 1, 1, 0, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d = %d, want %d (all %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 7 {
		t.Fatalf("N = %d, want 7", h.N)
	}
	if h.MaxCount() != 3 {
		t.Fatalf("MaxCount = %d", h.MaxCount())
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid histogram")
		}
	}()
	NewHistogram(1, 1, 5)
}

// Property: Welford matches the two-pass mean and variance.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 2
		xs := make([]float64, count)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 3
			w.Add(xs[i])
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		return math.Abs(w.Mean()-Mean(xs)) < 1e-9*scale &&
			math.Abs(w.Variance()-Variance(xs)) < 1e-9*math.Max(1, Variance(xs)) &&
			w.N() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWelfordAllocFree is the allocation budget on Add, which folds one
// batch cost per optroot script batch.
func TestWelfordAllocFree(t *testing.T) {
	var w Welford
	if allocs := testing.AllocsPerRun(200, func() { w.Add(1.5) }); allocs != 0 {
		t.Errorf("Welford.Add: %.1f allocs per call, want 0", allocs)
	}
}

// Property: histogram never loses a count and bin totals equal N.
func TestHistogramConservesCountsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-5, 5, 10)
		clean := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			clean++
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == clean && h.N == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
