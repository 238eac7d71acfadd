package noise

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the equivalence contract of Source: for every seed, at every
// position, through every rand.Rand method and its own NormFloat64, it
// returns the bits rand.New(rand.NewSource(seed)) returns. math/rand is the
// reference and nothing else is: no expected values are recorded here, so
// the contract holds against whatever toolchain runs the tests.

// drawMethods are the methods the contract is checked through, in
// method-mask bit order. Each reduces one call to a comparable bit pattern:
// bits on the stdlib side, and on Source's side too unless direct is set,
// in which case Source's side calls direct on the Source itself.
var drawMethods = []struct {
	name   string
	bits   func(*rand.Rand) uint64
	direct func(*Source) uint64
}{
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }, nil},
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }, nil},
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }, nil},
	{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }, nil},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }, nil},
	{"Perm", func(r *rand.Rand) uint64 {
		h := uint64(0)
		for _, v := range r.Perm(5) {
			h = h*8 + uint64(v)
		}
		return h
	}, nil},
	{"Source.NormFloat64",
		func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
		func(s *Source) uint64 { return math.Float64bits(s.NormFloat64()) }},
}

const (
	allMethods   = 1<<7 - 1
	directNormal = 1 << 6 // the Source.NormFloat64 row
)

// diverge draws n values from both generators, cycling through the methods
// mask enables (none enabled means all), and describes the first draw whose
// bits differ; "" means none did.
func diverge(got *Source, want *rand.Rand, n int, mask uint8) string {
	if mask&allMethods == 0 {
		mask = allMethods
	}
	gotRand := rand.New(got)
	for i, k := 0, 0; i < n; k++ {
		m := k % len(drawMethods)
		if mask&(1<<m) == 0 {
			continue
		}
		g := uint64(0)
		if direct := drawMethods[m].direct; direct != nil {
			g = direct(got)
		} else {
			g = drawMethods[m].bits(gotRand)
		}
		if w := drawMethods[m].bits(want); g != w {
			return fmt.Sprintf("draw %d (%s): %#x, stdlib %#x", i, drawMethods[m].name, g, w)
		}
		i++
	}
	return ""
}

// boundaryCounts straddle every position where Source changes behaviour:
// 273 (last draw computed from the seed alone; 274 builds the state vector),
// 334 (the feed index's first wrap), 607 and 1214 (full turns of the vector).
var boundaryCounts = []int{0, 1, 2, 272, 273, 274, 275, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215}

func seedClasses() []int64 {
	seeds := []int64{
		0, 1, -1, 89482311, // 0 is remapped to 89482311 by the seeding
		1<<31 - 1, -(1<<31 - 1), 1 << 31, 1<<31 - 2, 1<<32 + 5, // multiples and neighbours of the LCG modulus
		math.MaxInt64, math.MinInt64,
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

func TestSourceMatchesStdlib(t *testing.T) {
	mixes := []struct {
		name string
		mask uint8
	}{
		{"Int63", 1 << 0},
		{"Uint64", 1 << 1},
		{"NormFloat64", 1 << 2},
		{"ExpFloat64", 1 << 3},
		{"Float64", 1 << 4},
		{"Perm", 1 << 5},
		{"Source.NormFloat64", directNormal},
		{"Int63+Uint64", 1<<0 | 1<<1},
		{"NormFloat64+Source.NormFloat64", 1<<2 | directNormal},
		{"Float64+Source.NormFloat64", 1<<4 | directNormal},
		{"all", allMethods},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			for _, seed := range seedClasses() {
				got, want := NewSource(seed), rand.New(rand.NewSource(seed))
				if d := diverge(got, want, 3100, mix.mask); d != "" {
					t.Fatalf("seed %d: %s", seed, d)
				}
			}
		})
	}
}

// wordTape is a rand.Source that records the words it hands out.
type wordTape struct {
	rand.Source
	words []int64
}

func (t *wordTape) Int63() int64 {
	x := t.Source.Int63()
	t.words = append(t.words, x)
	return x
}

// TestSourceNormFloat64Branches draws Source.NormFloat64 over the seed
// classes and, from the stdlib reference's first word of each variate,
// counts the variates that left the ziggurat's fast path for the base strip
// (i == 0, the tail) and for a wedge test. Equality on fast-path variates
// alone would leave the two rarely taken branches, where the copy differs
// from a plain transcription, unchecked; the test fails if either count is
// zero, so the draws it compares always reach both.
func TestSourceNormFloat64Branches(t *testing.T) {
	const draws = 3100
	var base, wedge int
	for _, seed := range seedClasses() {
		got, tape := NewSource(seed), &wordTape{Source: rand.NewSource(seed)}
		want := rand.New(tape)
		for n := 0; n < draws; n++ {
			tape.words = tape.words[:0]
			w := want.NormFloat64()
			if g := got.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, variate %d: %v, stdlib %v", seed, n, g, w)
			}
			j := int32(uint32(tape.words[0] >> 31))
			switch i := j & 0x7F; {
			case absInt32(j) < kn[i]:
			case i == 0:
				base++
			default:
				wedge++
			}
		}
	}
	t.Logf("%d base-strip and %d wedge variates", base, wedge)
	if base == 0 || wedge == 0 {
		t.Fatalf("%d base-strip and %d wedge variates: both branches must be reached", base, wedge)
	}
}

// TestSourceReseedMidStream re-seeds a Source at every boundary position and
// checks the stream that follows: Seed must leave no trace of the draws, or
// the state vector, that came before it.
func TestSourceReseedMidStream(t *testing.T) {
	for _, before := range boundaryCounts {
		for _, after := range boundaryCounts {
			got, want := NewSource(11), rand.New(rand.NewSource(11))
			if d := diverge(got, want, before, 1<<0); d != "" {
				t.Fatalf("before re-seed at %d: %s", before, d)
			}
			got.Seed(-97)
			want.Seed(-97)
			if d := diverge(got, want, after+40, allMethods); d != "" {
				t.Fatalf("re-seeded after %d draws: %s", before, d)
			}
			got.Seed(math.MinInt64)
			want.Seed(math.MinInt64)
			if d := diverge(got, want, 700, 1<<1); d != "" {
				t.Fatalf("re-seeded after %d then %d draws: %s", before, after+40, d)
			}
		}
	}
}

// FuzzSourceMatchesStdlib explores (seed, draw count, method mix) beyond the
// table; the committed corpus under testdata/fuzz pins the boundary cases.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(700), uint8(allMethods))
	f.Add(int64(math.MinInt64), uint16(1300), uint8(1<<2))
	f.Add(int64(-97), uint16(1214), uint8(directNormal))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, methodMask uint8) {
		n := int(draws) % 4096
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		if d := diverge(got, want, n, methodMask); d != "" {
			t.Fatalf("seed %d, %d draws, mask %#x: %s", seed, n, methodMask, d)
		}
		// The same generator re-seeded must start over exactly.
		got.Seed(seed ^ int64(draws))
		want.Seed(seed ^ int64(draws))
		if d := diverge(got, want, 300, methodMask); d != "" {
			t.Fatalf("seed %d re-seeded after %d draws, mask %#x: %s", seed, n, methodMask, d)
		}
	})
}

// TestStreamInterleavedMatchesSampleOnly drives one stream with every mix of
// local draws, externally applied draws, batches of them and checkpoint
// round trips, and requires its state after every step to equal that of a
// stream driven by Sample alone. The externally applied draws come from a
// stdlib replica of the seed, as a fleet worker's would. 900 increments take
// the generator through all of its phases, whichever operation happens to
// reach each boundary.
func TestStreamInterleavedMatchesSampleOnly(t *testing.T) {
	type op int
	const (
		opSample op = iota
		opApplyDraw
		opApplyDraws
		opRestore
	)
	tests := []struct {
		name string
		ops  []op // drawn from uniformly, so repeats are weights
	}{
		{"sample and apply", []op{opSample, opApplyDraw}},
		{"sample and batches", []op{opSample, opApplyDraws}},
		{"sample and restore", []op{opSample, opSample, opSample, opRestore}},
		{"remote only, then local", []op{opApplyDraw, opApplyDraws}},
		{"everything", []op{opSample, opSample, opApplyDraw, opApplyDraws, opRestore}},
	}
	const increments = 900
	for ti, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(1000 + ti)
			fresh := func() *Stream { return NewStream(2.5, 1.25, seed) }
			ref, got := fresh(), fresh()
			replica := rand.New(rand.NewSource(seed))
			choose := rand.New(rand.NewSource(int64(ti)))
			for n := 0; n < increments; {
				dt := 0.001 * float64(1+choose.Intn(100))
				k := 1
				switch o := tc.ops[choose.Intn(len(tc.ops))]; o {
				case opSample:
					got.Sample(dt)
					replica.NormFloat64()
				case opApplyDraw:
					got.ApplyDraw(dt, replica.NormFloat64())
				case opApplyDraws: // a remote batch: k draws arrive together
					k = choose.Intn(40)
					for i := 0; i < k; i++ {
						got.ApplyDraw(dt, replica.NormFloat64())
					}
				case opRestore:
					k = 0
					resumed := fresh()
					resumed.Restore(got.State())
					got = resumed
				}
				for i := 0; i < k; i++ {
					ref.Sample(dt)
				}
				n += k
				if g, w := got.State(), ref.State(); g != w {
					t.Fatalf("after %d increments: state %+v, Sample-only stream %+v", n, g, w)
				}
			}
			// The tail is local whatever the mix was: the generator must be
			// where a Sample-only stream's is.
			for i := 0; i < 50; i++ {
				got.Sample(0.5)
				ref.Sample(0.5)
			}
			if g, w := got.State(), ref.State(); g != w {
				t.Fatalf("local tail: state %+v, Sample-only stream %+v", g, w)
			}
		})
	}
}

// TestStreamRestoreRequiresFreshStream pins the loud failure: restoring into
// a stream that already holds increments used to resume a silently divergent
// sequence (the generator was past the snapshot's position).
func TestStreamRestoreRequiresFreshStream(t *testing.T) {
	donor := NewStream(1.5, 4, 99)
	for i := 0; i < 5; i++ {
		donor.Sample(0.3)
	}
	snap := donor.State()
	tests := []struct {
		name      string
		dirty     func(*Stream)
		wantPanic bool
	}{
		{"fresh", func(*Stream) {}, false},
		{"after Sample", func(s *Stream) { s.Sample(1) }, true},
		{"after ApplyDraw", func(s *Stream) { s.ApplyDraw(1, 0.5) }, true},
		{"after ApplyDraws", func(s *Stream) { s.ApplyDraw(1, 0.5); s.ApplyDraw(1, -0.5) }, true},
		{"after Restore", func(s *Stream) { s.Restore(snap) }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(1.5, 4, 99)
			tc.dirty(s)
			defer func() {
				if r := recover(); (r != nil) != tc.wantPanic {
					t.Fatalf("Restore panicked: %v, want panic: %v", r, tc.wantPanic)
				}
			}()
			s.Restore(snap)
		})
	}
}

var sinkBits uint64

// BenchmarkStreamSteadyDraw is one Stream.Sample on a stream whose state
// vector is long built: the per-draw cost every resampling round pays, which
// the O(1) seeding must leave where the stdlib generator had it.
func BenchmarkStreamSteadyDraw(b *testing.B) {
	s := NewStream(1, 50, 7)
	for i := 0; i < 1000; i++ {
		s.Sample(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(1)
	}
}

// BenchmarkSourceSeedAndDraw is seeding plus 10 normal variates, the figure
// the stdlib generator spends 13 us on.
func BenchmarkSourceSeedAndDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(NewSource(int64(i)))
		for k := 0; k < 10; k++ {
			sinkBits += math.Float64bits(r.NormFloat64())
		}
	}
}
