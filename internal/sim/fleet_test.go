package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noise"
	"repro/internal/testfunc"
)

// replayFleet is a FleetSampler that does what a remote agent does, in
// process: evaluate the objective at X and reproduce draw Skip of stream
// Seed from nothing but the request. mutate, if set, edits the results
// before they are returned.
type replayFleet struct {
	reqs   []FleetRequest
	mutate func([]FleetResult) ([]FleetResult, error)
}

func (f *replayFleet) SampleFleet(_ context.Context, reqs []FleetRequest) ([]FleetResult, error) {
	f.reqs = append(f.reqs, reqs...)
	res := make([]FleetResult, len(reqs))
	for i, r := range reqs {
		rng := rand.New(noise.NewSource(r.Seed))
		for k := 0; k < r.Skip; k++ {
			rng.NormFloat64()
		}
		res[i] = FleetResult{Z: rng.NormFloat64(), F: testfunc.Rosenbrock(r.X)}
	}
	if f.mutate != nil {
		return f.mutate(res)
	}
	return res, nil
}

// fleetTestConfig matches the space runBatches builds, serially sampled.
var fleetTestConfig = LocalConfig{
	Dim:      3,
	F:        testfunc.Rosenbrock,
	Sigma0:   ConstSigma(25),
	Seed:     7,
	Parallel: true,
	Workers:  1,
}

func newFleetSpace(t *testing.T, fleet FleetSampler) *LocalSpace {
	t.Helper()
	s := NewLocalSpace(fleetTestConfig)
	if err := s.UseFleet(fleet, "rosenbrock"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetMatchesInProcess: a space whose draws come back from a fleet
// ends the batch sequence with the same estimates, evaluation count and
// virtual clock, bit for bit, as one that drew them itself.
func TestFleetMatchesInProcess(t *testing.T) {
	local := NewLocalSpace(fleetTestConfig)
	want := sampleSequence(local)

	fleet := &replayFleet{}
	remote := newFleetSpace(t, fleet)
	got := sampleSequence(remote)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet estimates differ from in-process ones:\n%v\nvs\n%v", got, want)
	}
	if remote.Evaluations() != local.Evaluations() || remote.Clock().Now() != local.Clock().Now() {
		t.Fatalf("fleet accounting: %d evaluations at t=%v, in-process %d at t=%v",
			remote.Evaluations(), remote.Clock().Now(), local.Evaluations(), local.Clock().Now())
	}
	if int64(len(fleet.reqs)) != remote.Evaluations() {
		t.Fatalf("fleet saw %d requests for %d evaluations", len(fleet.reqs), remote.Evaluations())
	}
	for _, r := range fleet.reqs {
		if r.Objective != "rosenbrock" {
			t.Fatalf("unexpected request %+v", r)
		}
	}
}

// TestFleetFailuresLeaveNoTrace: whatever the fleet gets wrong, the batch is
// reported failed with no stream advanced and no clock tick.
func TestFleetFailuresLeaveNoTrace(t *testing.T) {
	boom := errors.New("fleet unreachable")
	cases := []struct {
		name    string
		mutate  func([]FleetResult) ([]FleetResult, error)
		wantErr string
	}{
		{"transport error", func([]FleetResult) ([]FleetResult, error) { return nil, boom }, "fleet unreachable"},
		{"short answer", func(r []FleetResult) ([]FleetResult, error) { return r[:1], nil }, "1 results for 2 requests"},
		{"different objective", func(r []FleetResult) ([]FleetResult, error) { r[1].F++; return r, nil }, "disagrees"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newFleetSpace(t, &replayFleet{mutate: c.mutate})
			pts := []Point{s.NewPoint([]float64{1, 2, 3}), s.NewPoint([]float64{3, 2, 1})}
			before := []Estimate{pts[0].Estimate(), pts[1].Estimate()}
			err := s.SampleBatch(context.Background(), pts, 1)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want it to contain %q", err, c.wantErr)
			}
			after := []Estimate{pts[0].Estimate(), pts[1].Estimate()}
			if !reflect.DeepEqual(before, after) || s.Evaluations() != 0 || s.Clock().Now() != 0 {
				t.Fatalf("failed batch left a trace: %v -> %v, %d evaluations, t=%v",
					before, after, s.Evaluations(), s.Clock().Now())
			}
		})
	}
}

// TestUseFleetRejections: a fleet can only be attached to a space that has
// not started.
func TestUseFleetRejections(t *testing.T) {
	s := newRosenSpace(true, 1)
	if err := s.UseFleet(nil, "rosenbrock"); err == nil {
		t.Error("nil fleet accepted")
	}
	if err := s.UseFleet(&replayFleet{}, ""); err == nil {
		t.Error("empty objective name accepted")
	}
	s.NewPoint([]float64{1, 2, 3})
	if err := s.UseFleet(&replayFleet{}, "rosenbrock"); err == nil {
		t.Error("fleet attached to a space that already has points")
	}
}
