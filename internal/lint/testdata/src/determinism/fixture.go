// Package sim is a determinism-analyzer fixture; the name puts it in the
// result-affecting set.
package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func clock() time.Duration {
	t0 := time.Now()      // want `time\.Now in result-affecting package sim`
	return time.Since(t0) // want `time\.Since in result-affecting package sim`
}

func annotatedAbove() time.Time {
	//optlint:nondeterministic-ok fixture: justified on the line above
	return time.Now()
}

func annotatedTrailing() time.Time {
	return time.Now() //optlint:nondeterministic-ok fixture: justified on the same line
}

func notLineScoped() time.Time {
	//optlint:nondeterministic-ok fixture: two lines up, must NOT suppress

	return time.Now() // want `time\.Now in result-affecting package sim`
}

func spacedDirectiveDoesNotSuppress() time.Time {
	// optlint:nondeterministic-ok fixture: spaced form, must NOT suppress
	return time.Now() // want `time\.Now in result-affecting package sim`
}

func globalRNG() float64 {
	return rand.Float64() // want `rand\.Float64 uses the process-global RNG`
}

func seededIsFine(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

func mapAccumulates(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration assigns to non-loop-local state "total"`
		total += v
	}
	return total
}

func mapCollectsAnnotated(m map[string]int) []int {
	out := make([]int, 0, len(m))
	//optlint:nondeterministic-ok fixture: caller sorts the collected values
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func mapDeletes(m, dead map[string]int) {
	for k := range m { // want `map iteration deletes from non-loop-local state "dead"`
		delete(dead, k)
	}
}

func mapLoopLocalIsFine(m map[string]int) {
	for k := range m {
		n := len(k)
		n++
		_ = n
	}
}

type sampler struct{ rng *rand.Rand }

// acc is a per-element accumulator; its methods mutate only itself.
type acc struct{ sum float64 }

func (a *acc) add(x float64)           { a.sum += x }
func (a *acc) sample(r *rand.Rand)     { a.sum += r.Float64() }
func (a *acc) sampleV2(r *randv2.Rand) { a.sum += r.Float64() }

func mapDrawsAsReceiver(m map[string]*acc, r *rand.Rand) {
	for _, a := range m { // want `map iteration draws from non-loop-local state "r"`
		a.add(r.NormFloat64())
	}
}

func (s *sampler) mapDrawsAsArgument(m map[string]*acc) {
	for _, a := range m { // want `map iteration draws from non-loop-local state "s\.rng"`
		a.sample(s.rng)
	}
}

func mapDrawsFromV2(m map[string]*acc, r *randv2.Rand) {
	for _, a := range m { // want `map iteration draws from non-loop-local state "r"`
		a.sampleV2(r)
	}
}

func mapLoopLocalRandIsFine(m map[string]*acc) {
	for k, a := range m {
		a.sample(rand.New(rand.NewSource(int64(len(k)))))
	}
}

func sliceDrawsAreFine(as []*acc, r *rand.Rand) {
	for _, a := range as {
		a.sample(r)
	}
}

func mapDrawsAnnotated(m map[string]*acc, r *rand.Rand) {
	//optlint:nondeterministic-ok fixture: justified on the line above
	for _, a := range m {
		a.sample(r)
	}
}
