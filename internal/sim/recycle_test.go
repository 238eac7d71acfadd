package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/testfunc"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to mention %q", what, msg, want)
		}
	}()
	f()
}

// bodyOf is the storage behind a LocalSpace point.
func bodyOf(p Point) *pointBody { return p.(*localPoint).b }

// TestStaleHandleStaysClosed: once closed, a handle stays closed after
// NewPoint has given its body to another point, and the point on the reused
// body draws exactly what the point with the same stream index draws on a
// fresh body, whatever the body's previous point left in it (generator
// position, a built state vector).
func TestStaleHandleStaysClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LocalConfig
	}{
		{"in-caller", LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: ConstSigma(25), Seed: 5, Parallel: true}},
		{"pool", LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: ConstSigma(25), Seed: 5, Workers: 1, SampleCost: noCost}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewLocalSpace(tc.cfg)
			defer s.Close()
			old := s.NewPoint([]float64{1, 2, 3}) // stream 0
			// Past draw 274, so the generator has built its state vector.
			for i := 0; i < 300; i++ {
				mustSample(t, s, []Point{old}, 0.5)
			}
			old.Close()
			x := []float64{-1, 0.5, 2}
			p := s.NewPoint(x) // stream 1, on old's body
			if bodyOf(p) != bodyOf(old) {
				t.Fatal("NewPoint did not reuse the closed point's body")
			}

			mustPanic(t, "SampleBatch on the stale handle", "closed", func() { mustSample(t, s, []Point{old}, 1) })
			if _, err := s.ExportPoint(old); err == nil {
				t.Error("ExportPoint on the stale handle did not error")
			}
			mustPanic(t, "X on the stale handle", "closed", func() { old.X() })
			mustPanic(t, "Estimate on the stale handle", "closed", func() { old.Estimate() })
			mustPanic(t, "Underlying on the stale handle", "closed", func() { Underlying(old) })
			old.Close() // must not free p's body
			a, b := s.NewPoint(x), s.NewPoint(x)
			if bodyOf(a) == bodyOf(b) || bodyOf(a) == bodyOf(p) || bodyOf(b) == bodyOf(p) {
				t.Fatal("a second Close of a stale handle freed a live body")
			}

			fresh := NewLocalSpace(tc.cfg)
			defer fresh.Close()
			if err := fresh.RestoreState(SpaceState{NextStream: 1}); err != nil {
				t.Fatal(err)
			}
			q := fresh.NewPoint(x) // stream 1, on a fresh body
			for k := 0; k < 5; k++ {
				mustSample(t, s, []Point{p}, 0.25)
				mustSample(t, fresh, []Point{q}, 0.25)
				if pe, qe := p.Estimate(), q.Estimate(); pe != qe {
					t.Fatalf("after %d draws: reused body %+v, fresh body %+v", k+1, pe, qe)
				}
			}
			ps, err := s.ExportPoint(p)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := fresh.ExportPoint(q)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Stream != qs.Stream || ps.Noise != qs.Noise {
				t.Fatalf("reused body exports %+v, fresh body %+v", ps, qs)
			}

			// RestorePoint takes a freed body too, and resumes it exactly.
			p.Close()
			r, err := s.RestorePoint(qs)
			if err != nil {
				t.Fatal(err)
			}
			if bodyOf(r) != bodyOf(p) {
				t.Fatal("RestorePoint did not reuse the closed point's body")
			}
			mustSample(t, s, []Point{r}, 0.25)
			mustSample(t, fresh, []Point{q}, 0.25)
			if re, qe := r.Estimate(), q.Estimate(); re != qe {
				t.Fatalf("restored onto a reused body %+v, original %+v", re, qe)
			}
		})
	}
}

// TestFleetSpaceDoesNotRecycle: a fleet space's closed point keeps its body
// (in-flight dispatch frames may still alias its coordinates), and its
// handle is closed all the same.
func TestFleetSpaceDoesNotRecycle(t *testing.T) {
	s := newFleetSpace(&replayFleet{})
	old := s.NewPoint([]float64{1, 2, 3})
	mustSample(t, s, []Point{old}, 1)
	old.Close()
	if p := s.NewPoint([]float64{1, 2, 3}); bodyOf(p) == bodyOf(old) {
		t.Fatal("a fleet space reused a closed point's body")
	}
	mustPanic(t, "SampleBatch on a closed fleet point", "closed", func() { mustSample(t, s, []Point{old}, 1) })
	mustPanic(t, "X on a closed fleet point", "closed", func() { old.X() })
}

// TestRecycleConcurrentOwners: goroutines creating and closing points of one
// space at once never get a body another live point holds. (Sampling is
// left out: a space's batches come from one goroutine, which owns its
// clock.)
func TestRecycleConcurrentOwners(t *testing.T) {
	const goroutines, cycles = 4, 200
	s := NewLocalSpace(LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: ConstSigma(25), Seed: 9})
	var mu sync.Mutex
	live := map[*pointBody]bool{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := []float64{float64(g), 1, 2}
			for i := 0; i < cycles; i++ {
				p := s.NewPoint(x)
				b := bodyOf(p)
				mu.Lock()
				taken := live[b]
				live[b] = true
				mu.Unlock()
				if taken {
					t.Error("NewPoint handed out a body a live point holds")
					return
				}
				mu.Lock()
				delete(live, b)
				mu.Unlock()
				p.Close()
			}
		}()
	}
	wg.Wait()
}
