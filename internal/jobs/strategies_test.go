package jobs

import (
	"strings"
	"testing"
)

// The strategy registry flows through jobs.Spec.Algorithm: pso and hybrid
// jobs run end-to-end through the same manager path as the NM family.

func TestPSOAndHybridJobsEndToEnd(t *testing.T) {
	m, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for _, spec := range []Spec{
		{Objective: "rastrigin", Dim: 2, Algorithm: "pso",
			Sigma0: 2, Seed: 7, Particles: 8, SwarmIterations: 10},
		{Objective: "rastrigin", Dim: 2, Algorithm: "hybrid",
			Sigma0: 2, Seed: 7, Particles: 8, SwarmIterations: 10,
			Tol: -1, MaxIterations: 30, Budget: 1e12},
	} {
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", spec.Algorithm, err)
		}
		res, err := m.Wait(id)
		if err != nil {
			t.Fatalf("%s: wait: %v", spec.Algorithm, err)
		}
		st, err := m.Get(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("%s: state %v err %v", spec.Algorithm, st.State, err)
		}
		if len(res.BestX) != 2 || res.Iterations == 0 {
			t.Fatalf("%s: degenerate result %+v", spec.Algorithm, res)
		}
		// Status progress must reflect the run (trace-fed counters).
		if st.Iterations == 0 {
			t.Errorf("%s: status shows no progress: %+v", spec.Algorithm, st)
		}
	}
}

// TestPSOJobDeterminism: the same pso spec produces the same result on
// repeated submissions (per-point noise streams + seeded swarm).
func TestPSOJobDeterminism(t *testing.T) {
	m, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := Spec{Objective: "rosenbrock", Dim: 3, Algorithm: "pso",
		Sigma0: 10, Seed: 21, Particles: 6, SwarmIterations: 8}
	var bests []float64
	for i := 0; i < 2; i++ {
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		bests = append(bests, res.BestG)
	}
	if bests[0] != bests[1] {
		t.Fatalf("pso jobs not deterministic: %v != %v", bests[0], bests[1])
	}
}

// TestSpecStrategyValidation: alias names validate, junk and misuse do not.
func TestSpecStrategyValidation(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ok := []Spec{
		{Objective: "rosenbrock", Dim: 2, Algorithm: "pc-mn", Sigma0: 1, MaxIterations: 1, Tol: -1},
		{Objective: "rosenbrock", Dim: 2, Algorithm: "PCMN", Sigma0: 1, MaxIterations: 1, Tol: -1},
	}
	for _, spec := range ok {
		if _, err := m.Submit(spec); err != nil {
			t.Errorf("Submit(%q): %v", spec.Algorithm, err)
		}
	}
	bad := []struct {
		spec Spec
		want string
	}{
		{Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "warp"}, "unknown strategy"},
		{Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "pso", Restarts: 2}, "restart"},
		{Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "pso", Particles: -1}, "Particles"},
		{Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "pso", Particles: 100_000}, "Particles"},
		{Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "hybrid", SwarmIterations: -1}, "SwarmIterations"},
	}
	for _, c := range bad {
		_, err := m.Submit(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%+v) err = %v, want containing %q", c.spec, err, c.want)
		}
	}
}

// TestPSOJobSkipsCheckpointing: a non-resumable strategy runs fine under a
// checkpointing manager — it just completes without writing checkpoints.
func TestPSOJobSkipsCheckpointing(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{MaxConcurrent: 1, Store: openStore(t, "", dir), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(Spec{Objective: "rosenbrock", Dim: 2, Algorithm: "pso",
		Sigma0: 5, Seed: 3, Particles: 6, SwarmIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Get(id)
	if st.State != StateDone || st.CheckpointError != "" {
		t.Fatalf("pso job under checkpointing manager: %+v", st)
	}
}
