package noise

import "testing"

// This file is the allocation-budget regression layer over the per-draw hot
// path. A single sampling increment — one noise draw folded into one
// accumulator — runs millions of times per optimization, so any allocation
// here multiplies into GC pressure across the whole run. The budgets are
// exact zeros and fail the build when exceeded.

func TestPerDrawAllocFree(t *testing.T) {
	s := NewStream(1.0, 0.5, 42)
	a := NewAccumulator(1.0, 0.5)
	src := NewSource(7)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Stream.Sample", func() { s.Sample(0.01) }},
		{"Stream.ApplyDraw", func() { s.ApplyDraw(0.01, 0.3) }},
		{"Accumulator.Sample", func() { a.Sample(0.01, src) }},
		{"Accumulator.ApplyDraw", func() { a.ApplyDraw(0.01, 0.3) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}

// TestStreamFirstTouchAllocs budgets the calls AllocsPerRun's warm-up hides
// above: the first of each kind on a stream. None allocates. Applying
// external draws never touches the generator (a fleet master's every
// increment); the generator lives inside the stream, and its state vector is
// not built before draw 274.
func TestStreamFirstTouchAllocs(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Stream)
	}{
		{"first ApplyDraw", func(s *Stream) { s.ApplyDraw(0.01, 0.3) }},
		{"first Sample", func(s *Stream) { s.Sample(0.01) }},
		{"first Sample after Restore", func(s *Stream) { s.Restore(State{T: 0.03, N: 3}); s.Sample(0.01) }},
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
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs, want 0", c.name, allocs)
		}
	}
}

// TestStreamInitMatchesNewStream: a stream embedded by value and set up with
// Init draws exactly what a NewStream does, and Init resets a used stream.
func TestStreamInitMatchesNewStream(t *testing.T) {
	var owner struct {
		pad    [3]int
		stream Stream
	}
	owner.stream.Init(2, 1.5, 77)
	owner.stream.Sample(0.5) // dirty it, then re-Init
	owner.stream.Init(2, 1.5, 77)
	ref := NewStream(2, 1.5, 77)
	for i := 0; i < 300; i++ { // past draw 274, where the state vector is built
		owner.stream.Sample(0.01)
		ref.Sample(0.01)
	}
	if got, want := owner.stream.State(), ref.State(); got != want {
		t.Fatalf("embedded stream %+v, NewStream %+v", got, want)
	}
}
