package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoiselessAccumulator(t *testing.T) {
	src := NewSource(1)
	a := NewAccumulator(3.5, 0)
	for i := 0; i < 10; i++ {
		a.Sample(1, src)
	}
	if got := a.Mean(); got != 3.5 {
		t.Fatalf("noiseless Mean() = %v, want 3.5", got)
	}
	if got := a.Sigma(); got != 0 {
		t.Fatalf("noiseless Sigma() = %v, want 0", got)
	}
}

func TestSigmaBeforeSampling(t *testing.T) {
	a := NewAccumulator(1, 2)
	if !math.IsInf(a.Sigma(), 1) {
		t.Fatalf("Sigma before sampling = %v, want +Inf", a.Sigma())
	}
	if a.Mean() != 1 {
		t.Fatalf("Mean before sampling = %v, want underlying 1", a.Mean())
	}
}

func TestSigmaDecaysAsSqrtT(t *testing.T) {
	src := NewSource(2)
	a := NewAccumulator(0, 10)
	a.Sample(4, src)
	if got, want := a.Sigma(), 10.0/2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sigma at t=4: got %v, want %v", got, want)
	}
	a.Sample(12, src) // t = 16
	if got, want := a.Sigma(), 10.0/4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sigma at t=16: got %v, want %v", got, want)
	}
}

func TestTimeAccumulates(t *testing.T) {
	src := NewSource(3)
	a := NewAccumulator(0, 1)
	a.Sample(0.5, src)
	a.Sample(1.5, src)
	a.Sample(2.0, src)
	if got := a.Time(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("Time() = %v, want 4.0", got)
	}
	if got := a.Increments(); got != 3 {
		t.Fatalf("Increments() = %v, want 3", got)
	}
}

func TestSamplePanicsOnNonPositiveDt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(0) did not panic")
		}
	}()
	a := NewAccumulator(0, 1)
	a.Sample(0, NewSource(4))
}

func TestNegativeSigma0Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAccumulator(-1) did not panic")
		}
	}()
	NewAccumulator(0, -1)
}

// Statistical test: the estimate after total time t must have empirical
// variance close to sigma0^2/t, independent of how sampling is split into
// increments.
func TestVarianceLaw(t *testing.T) {
	const (
		sigma0 = 5.0
		trials = 4000
	)
	schedules := [][]float64{
		{8},                      // one shot
		{1, 1, 1, 1, 1, 1, 1, 1}, // uniform increments
		{0.5, 0.5, 3, 4},         // irregular increments
	}
	for si, sched := range schedules {
		src := NewSource(int64(100 + si))
		total := 0.0
		for _, dt := range sched {
			total += dt
		}
		var sum, sum2 float64
		for i := 0; i < trials; i++ {
			a := NewAccumulator(0, sigma0)
			for _, dt := range sched {
				a.Sample(dt, src)
			}
			m := a.Mean()
			sum += m
			sum2 += m * m
		}
		mean := sum / trials
		variance := sum2/trials - mean*mean
		want := sigma0 * sigma0 / total
		if rel := math.Abs(variance-want) / want; rel > 0.15 {
			t.Errorf("schedule %d: empirical var %.4f, want %.4f (rel err %.2f)",
				si, variance, want, rel)
		}
		if math.Abs(mean) > 4*sigma0/math.Sqrt(total*trials) {
			t.Errorf("schedule %d: empirical mean %.4f too far from 0", si, mean)
		}
	}
}

// The running mean must be consistent: adding more samples keeps the estimate
// converging toward f (strong-law behaviour), so |mean - f| at large t should
// be much smaller than at small t on average.
func TestConvergenceTowardUnderlying(t *testing.T) {
	src := NewSource(7)
	const f = 42.0
	var earlyErr, lateErr float64
	const trials = 500
	for i := 0; i < trials; i++ {
		a := NewAccumulator(f, 100)
		a.Sample(1, src)
		earlyErr += math.Abs(a.Mean() - f)
		for j := 0; j < 99; j++ {
			a.Sample(1, src)
		}
		lateErr += math.Abs(a.Mean() - f)
	}
	if lateErr >= earlyErr/2 {
		t.Fatalf("late error %v not much smaller than early error %v", lateErr, earlyErr)
	}
}

// Property: for any positive sigma0 and any positive sampling schedule the
// invariants hold: t equals the sum of increments, Sigma is sigma0/sqrt(t),
// and Underlying is preserved.
func TestAccumulatorInvariantsProperty(t *testing.T) {
	f := func(seed int64, rawSigma float64, rawDts []float64) bool {
		sigma0 := math.Abs(rawSigma)
		if math.IsNaN(sigma0) || math.IsInf(sigma0, 0) || sigma0 > 1e6 {
			return true // skip pathological generator output
		}
		src := NewSource(seed)
		a := NewAccumulator(1.25, sigma0)
		total := 0.0
		for _, r := range rawDts {
			dt := math.Abs(r)
			if dt == 0 || math.IsNaN(dt) || math.IsInf(dt, 0) || dt > 1e6 {
				continue
			}
			a.Sample(dt, src)
			total += dt
		}
		if total == 0 {
			return math.IsInf(a.Sigma(), 1)
		}
		if math.Abs(a.Time()-total) > 1e-9*total {
			return false
		}
		wantSigma := sigma0 / math.Sqrt(total)
		if math.Abs(a.Sigma()-wantSigma) > 1e-9*(1+wantSigma) {
			return false
		}
		return a.Underlying() == 1.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		src := NewSource(99)
		a := NewAccumulator(0, 2)
		out := make([]float64, 0, 10)
		for i := 0; i < 10; i++ {
			a.Sample(1, src)
			out = append(out, a.Mean())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamMatchesAccumulator(t *testing.T) {
	// A Stream is an Accumulator plus a private RNG: the same seed must
	// reproduce exactly the draws of a hand-held rand.Rand.
	st := NewStream(3.5, 2, 42)
	rng := rand.New(rand.NewSource(42))
	acc := NewAccumulator(3.5, 2)
	for i := 0; i < 25; i++ {
		st.Sample(0.5)
		acc.ApplyDraw(0.5, rng.NormFloat64())
		if st.Mean() != acc.Mean() || st.Sigma() != acc.Sigma() {
			t.Fatalf("step %d: stream (%v, %v) != accumulator (%v, %v)",
				i, st.Mean(), st.Sigma(), acc.Mean(), acc.Sigma())
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(0, 1, 1)
	b := NewStream(0, 1, 2)
	a.Sample(1)
	b.Sample(1)
	if a.Mean() == b.Mean() {
		t.Fatal("distinct seeds produced identical first draws")
	}
}

func TestStreamStateRestore(t *testing.T) {
	// A stream rebuilt from State must continue the exact draw sequence of
	// the original: Restore replays the recorded number of normal draws.
	orig := NewStream(1.5, 4, 99)
	for i := 0; i < 7; i++ {
		orig.Sample(0.3 * float64(i+1))
	}
	st := orig.State()

	resumed := NewStream(1.5, 4, 99)
	resumed.Restore(st)
	if resumed.Mean() != orig.Mean() || resumed.Sigma() != orig.Sigma() ||
		resumed.Time() != orig.Time() || resumed.Increments() != orig.Increments() {
		t.Fatalf("restored stream state differs: mean %v vs %v", resumed.Mean(), orig.Mean())
	}
	for i := 0; i < 10; i++ {
		orig.Sample(0.9)
		resumed.Sample(0.9)
		if resumed.Mean() != orig.Mean() || resumed.Sigma() != orig.Sigma() {
			t.Fatalf("post-restore draw %d diverged: %v vs %v", i, resumed.Mean(), orig.Mean())
		}
	}
}
