package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

// TestDuplicatePointRefused: a batch that lists a point twice is refused on
// every batch path — in-caller, pool and fleet — before anything
// is sampled, so the refusal leaves the estimates, Evaluations() and the
// clock where they were. This is the rule that lets a stream go unlocked.
func TestDuplicatePointRefused(t *testing.T) {
	ctx := context.Background()
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()

	costFree := fleetTestConfig
	costed := fleetTestConfig
	costed.SampleCost = noCost
	costed.Pool = pool
	fleet := &replayFleet{}
	paths := []struct {
		name  string
		space func() *LocalSpace
	}{
		{"in-caller", func() *LocalSpace { return NewLocalSpace(costFree) }},
		{"pool", func() *LocalSpace { return NewLocalSpace(costed) }},
		{"fleet", func() *LocalSpace { return newFleetSpace(fleet) }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			s := path.space()
			a, b := s.NewPoint([]float64{1, 2, 3}), s.NewPoint([]float64{3, 2, 1})
			if err := s.SampleBatch(ctx, []Point{a, b}, 1); err != nil {
				t.Fatal(err)
			}
			evals, now, est := s.Evaluations(), s.Clock().Now(), a.Estimate()
			reqs := len(fleet.reqs)
			for _, batch := range [][]Point{{a, b, a}, {a, a}, {b, a, b}} {
				msg := panicOf(func() { s.SampleBatch(ctx, batch, 1) })
				if !strings.Contains(msg, "twice") {
					t.Fatalf("batch listing a point twice: panic %q", msg)
				}
			}
			if s.Evaluations() != evals || s.Clock().Now() != now || !sameBits(a.Estimate(), est) || len(fleet.reqs) != reqs {
				t.Errorf("a refused batch left a trace: %d evaluations at t=%v (were %d at t=%v), fleet requests %d (were %d)",
					s.Evaluations(), s.Clock().Now(), evals, now, len(fleet.reqs), reqs)
			}
			// The same points listed once each are still welcome.
			if err := s.SampleBatch(ctx, []Point{b, a}, 1); err != nil {
				t.Fatal(err)
			}
		})
	}

	// A point of another space is foreign, as it always was in spirit: its
	// batch stamp means nothing here.
	s1, s2 := NewLocalSpace(costFree), NewLocalSpace(costFree)
	p := s2.NewPoint([]float64{1, 1, 1})
	if msg := panicOf(func() { s1.SampleBatch(ctx, []Point{p}, 1) }); !strings.Contains(msg, "foreign") {
		t.Errorf("point of another space: panic %q", msg)
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "<no panic>"
}

// TestConcurrentBatchesOnSharedPool is the -race stress for unlocked
// streams: several spaces drive batches of their own distinct points through
// one shared pool at once, while cost-free spaces sample
// in their callers beside them. Every point ends bit for bit where a serial
// replay of its space puts it.
func TestConcurrentBatchesOnSharedPool(t *testing.T) {
	pool := sched.New(sched.Config{Workers: 4})
	defer pool.Close()
	const spaces, points, rounds = 6, 12, 40
	run := func(cfg LocalConfig) []Estimate {
		s := NewLocalSpace(cfg)
		pts := make([]Point, points)
		for i := range pts {
			pts[i] = s.NewPoint([]float64{float64(i), -1, 0.5})
		}
		ctx := context.Background()
		for r := 0; r < rounds; r++ {
			// Overlapping windows of distinct points, so consecutive batches
			// share points but no batch lists one twice.
			batch := pts[r%4 : r%4+8]
			if err := s.SampleBatch(ctx, batch, 0.1*float64(1+r%3)); err != nil {
				t.Error(err)
				return nil
			}
		}
		out := make([]Estimate, len(pts))
		for i, p := range pts {
			out[i] = p.Estimate()
		}
		return out
	}
	cfgs := make([]LocalConfig, spaces)
	for i := range cfgs {
		cfgs[i] = fleetTestConfig
		cfgs[i].Seed = int64(100 + i)
		if i%3 != 2 { // two in three on the pool, the rest in their callers
			cfgs[i].SampleCost = noCost
			cfgs[i].Pool = pool
		}
	}
	got := make([][]Estimate, spaces)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(cfgs[i])
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		cfg.SampleCost, cfg.Pool = nil, nil
		want := run(cfg)
		for j := range want {
			if !sameBits(got[i][j], want[j]) {
				t.Errorf("space %d point %d: concurrent %+v, serial %+v", i, j, got[i][j], want[j])
			}
		}
	}
	if pool.Dispatched() == 0 {
		t.Fatal("nothing reached the shared pool")
	}
}
