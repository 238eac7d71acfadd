package noise

// Source is the additive lagged Fibonacci generator behind math/rand's
// NewSource, with O(1) seeding. Every value it returns is bit for bit the
// value the stdlib source returns for the same seed at the same position, so
// rand.New(noise.NewSource(seed)) is a drop-in *rand.Rand: same Int63, same
// NormFloat64, same Perm. Source.NormFloat64 (normal.go) draws the same normal
// variates without the rand.Rand, and is what sampling streams use.
//
// What differs is when the 607-word state is computed. The stdlib fills it
// eagerly by stepping the Lehmer LCG x -> 48271*x mod (2^31-1) 1841 times in
// sequence, about 13 us, which a simplex trial point that then draws three
// variates pays in full. But word i depends only on steps 21+3i .. 23+3i of
// that chain, and step k is x0 * 48271^k mod (2^31-1): with the powers
// tabulated once at init, any word is three independent multiplications away
// from the seed.
//
// The draw order is fixed — draw n adds words 334-n and 607-n and stores the
// sum in the former — so the first 273 draws read only words no draw has
// written yet, and nothing they store is read back before draw 274. Those
// draws are therefore computed from the seed alone, with no state vector at
// all: a Source that stops early (most points do, see ARCHITECTURE's
// determinism argument) never allocates one. Draw 274 builds the vector in
// one pass, every initial word plus the 273 stores it skipped, and from
// there a draw is the stdlib's add-and-store, instruction for instruction:
// the early phase hides behind the feed-index wrap test that draw already
// carries.
//
// A Source is not safe for concurrent use, like the stdlib's. Its indices are
// int32 (they stay below 607): a Source lives inside every sampled point's
// Stream, and the narrow fields keep a point a size class smaller.
type Source struct {
	tap  int32 // index of the lagged word; counts down, wrapping below 0
	feed int32 // index of the word being replaced; counts down
	// live is the feed index below which a draw leaves the plain path:
	// rngLen-rngTap while the stream is still computed from the seed (every
	// draw), 0 once vec is built (only the wrap of feed from -1 to 606).
	live int32
	x0   uint64         // the seed reduced into the LCG's domain [1, 2^31-2]
	vec  *[rngLen]int64 // nil until draw 274; kept across Seed for reuse
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lcgMod = 1<<31 - 1 // the Lehmer generator's Mersenne-prime modulus
	lcgMul = 48271
)

// lcgPow[i] holds 48271^(21+3i+j) mod (2^31-1) for j = 0, 1, 2: the
// multipliers that carry a seed to the three LCG outputs packed into state
// word i. (The stdlib discards 20 outputs, then spends three per word.) Every
// residue is below 2^31, so uint32 holds it.
var lcgPow = func() (pow [rngLen][3]uint32) {
	p := uint64(1)
	for k := 1; k <= 23+3*(rngLen-1); k++ {
		p = mulmod(p, lcgMul)
		if k >= 21 {
			pow[(k-21)/3][(k-21)%3] = uint32(p)
		}
	}
	return pow
}()

// NewSource returns a Source seeded like math/rand's NewSource(seed). It is the
// sanctioned constructor for seeded streams in this repository; wrap it in
// rand.New for the distribution methods.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state a stdlib source seeded with seed
// starts in, in O(1).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.live = rngLen - rngTap

	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// Int63 implements rand.Source. It is Uint64's body again, not a call to it:
// the slow-path call keeps Uint64 over the inliner's budget, and rand.Rand
// reaches NormFloat64's variates through Int63, so delegating would put a
// second call on every draw.
//
//optlint:noalloc
func (s *Source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.live {
		return s.slow() & rngMask
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64.
//
//optlint:noalloc
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.live {
		return uint64(s.slow())
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// slow finishes a draw whose feed index fell below live, tap and feed already
// stepped. With vec built that is the stdlib's wrap of feed, once per 607
// draws. Before, it is every draw: the first 273 add two never-written words
// straight from the seed and store nothing; draw 274 is the first whose tap
// word (333) an earlier draw wrote, so it builds vec and joins the plain path.
func (s *Source) slow() int64 {
	switch {
	case s.live == 0:
		s.feed += rngLen
	case s.tap >= rngLen-rngTap:
		return s.word(int(s.feed)) + s.word(int(s.tap))
	default:
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// build leaves vec as 273 stdlib draws leave it: every word's initial value,
// then draw n's store of word 334-n + word 607-n into word 334-n. (Those
// draws only read words above the ones they write, so the stores are
// independent and replay as one pass of adds.)
func (s *Source) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for n := 1; n <= rngTap; n++ {
		s.vec[rngLen-rngTap-n] += s.vec[rngLen-n]
	}
	s.live = 0
}

// word computes initial state word i from the seed alone: LCG outputs
// 21+3i, 22+3i and 23+3i packed at bit offsets 40, 20 and 0, XOR the cooked
// constant — exactly what the stdlib's sequential fill leaves in vec[i]. Each
// output is its own power of the multiplier applied to the seed, so the three
// multiplications are independent rather than a chain that waits on each.
func (s *Source) word(i int) int64 {
	p := &lcgPow[i]
	x1 := mulmod(s.x0, uint64(p[0]))
	x2 := mulmod(s.x0, uint64(p[1]))
	x3 := mulmod(s.x0, uint64(p[2]))
	return int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
}

// mulmod returns a*b mod (2^31-1) for a, b < 2^31. Since 2^31 = 1 mod the
// modulus, the high bits fold onto the low ones: two folds bring the 62-bit
// product to at most 2^31, one subtraction to the canonical residue. The
// compiler's % by this constant spends two more multiplications; folding
// makes building the vector 1.6 times as fast (3.7 us against 5.8).
func mulmod(a, b uint64) uint64 {
	v := a * b
	v = v&lcgMod + v>>31
	v = v&lcgMod + v>>31
	if v >= lcgMod {
		v -= lcgMod
	}
	return v
}
