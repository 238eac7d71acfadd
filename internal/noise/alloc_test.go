package noise

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the allocation-budget regression layer over the per-draw hot
// path. A single sampling increment — one noise draw folded into one
// accumulator — runs millions of times per optimization, so any allocation
// here multiplies into GC pressure across the whole run. The budgets are
// exact zeros and fail the build when exceeded.

func TestPerDrawAllocFree(t *testing.T) {
	s := NewStream(1.0, 0.5, 42)
	a := NewAccumulator(1.0, 0.5)
	rng := rand.New(rand.NewSource(7))
	zs := make([]float64, 16)
	for i := range zs {
		zs[i] = rng.NormFloat64()
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Stream.Sample", func() { s.Sample(0.01) }},
		{"Stream.ApplyDraw", func() { s.ApplyDraw(0.01, 0.3) }},
		{"Stream.ApplyDraws/16", func() { s.ApplyDraws(0.01, zs) }},
		{"Accumulator.Sample", func() { a.Sample(0.01, rng) }},
		{"Accumulator.ApplyDraw", func() { a.ApplyDraw(0.01, 0.3) }},
		{"Accumulator.ApplyDraws/16", func() { a.ApplyDraws(0.01, zs) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}

// TestStreamFirstTouchAllocs budgets the calls AllocsPerRun's warm-up hides
// above: the first of each kind on a stream. Applying external draws never
// touches the generator, so it allocates nothing even on a fresh stream (a
// fleet master's every increment); the first local draw allocates the
// rand.Rand front end and nothing else — the state vector is not built
// before draw 274.
func TestStreamFirstTouchAllocs(t *testing.T) {
	zs := []float64{0.3, -0.2, 1.1}
	cases := []struct {
		name   string
		fn     func(*Stream)
		budget float64
	}{
		{"first ApplyDraw", func(s *Stream) { s.ApplyDraw(0.01, 0.3) }, 0},
		{"first ApplyDraws", func(s *Stream) { s.ApplyDraws(0.01, zs) }, 0},
		{"first Sample", func(s *Stream) { s.Sample(0.01) }, 1},
	}
	for _, c := range cases {
		const runs = 50
		fresh := make([]*Stream, runs+1) // +1: AllocsPerRun's warm-up call
		for i := range fresh {
			fresh[i] = NewStream(1.0, 0.5, int64(i))
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			c.fn(fresh[next])
			next++
		})
		if allocs > c.budget {
			t.Errorf("%s: %.1f allocs, want <= %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestApplyDrawsMatchesSequential pins the batched fold's bitwise contract:
// ApplyDraws(dt, zs) must leave a stream in exactly the state len(zs)
// sequential ApplyDraw calls would — same accumulator moments, same RNG
// position — including when batches interleave with local Sample calls.
func TestApplyDrawsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seq := NewStream(2.5, 1.25, 1234)
	bat := NewStream(2.5, 1.25, 1234)
	for round := 0; round < 50; round++ {
		dt := 0.001 * float64(1+rng.Intn(100))
		zs := make([]float64, rng.Intn(20))
		for i := range zs {
			zs[i] = rng.NormFloat64()
		}
		for _, z := range zs {
			seq.ApplyDraw(dt, z)
		}
		bat.ApplyDraws(dt, zs)
		if round%7 == 0 { // interleave local draws: RNG positions must agree
			seq.Sample(dt)
			bat.Sample(dt)
		}
		ss, bs := seq.State(), bat.State()
		if ss != bs {
			t.Fatalf("round %d: batched state diverged from sequential\nseq: %+v\nbat: %+v", round, ss, bs)
		}
		if b1, b2 := math.Float64bits(seq.Sigma()), math.Float64bits(bat.Sigma()); b1 != b2 {
			t.Fatalf("round %d: sigma bits %x != %x", round, b1, b2)
		}
	}
}
