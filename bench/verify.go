package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/jobs"
)

// verifySample is how many of a window's jobs are replayed.
const verifySample = 32

// verifyReplay replays up to n evenly spaced jobs in a fresh in-process
// jobs.Manager with one worker and requires the serialized core.Result to be
// byte-identical to what the system under test returned: every result is a
// pure function of (spec, seed), whatever fleet, store or front door it
// crossed. It returns one message per mismatch.
func verifyReplay(recs []*jobRec, n int) []string {
	if len(recs) == 0 {
		return nil
	}
	mgr, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		return []string{fmt.Sprintf("replay manager: %v", err)}
	}
	defer mgr.Close()
	var bad []string
	step := max(1, len(recs)/n)
	for i := 0; i < len(recs); i += step {
		if err := checkResult(mgr, recs[i].spec, recs[i].result); err != nil {
			bad = append(bad, fmt.Sprintf("job %s (client %d seq %d): %v", recs[i].id, recs[i].client, recs[i].seq, err))
		}
	}
	return bad
}

// checkResult runs spec on mgr and compares the serialized result with got.
func checkResult(mgr *jobs.Manager, spec jobs.Spec, got []byte) error {
	spec.Fleet = false // the replay manager has no fleet; results do not depend on one
	id, err := mgr.Submit(spec)
	if err != nil {
		return fmt.Errorf("replay submit: %w", err)
	}
	res, err := mgr.Wait(id)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		return fmt.Errorf("result differs from the replay:\n got  %s\n want %s", bytes.TrimSpace(got), want)
	}
	return nil
}

// crossCheck requires job (client, seq) of two workloads that share a spec
// generator to have returned byte-identical results, for every job both
// completed.
func crossCheck(a, b []*jobRec) (compared int, bad []string) {
	type key struct{ client, seq int }
	byKey := make(map[key][]byte, len(a))
	for _, r := range a {
		byKey[key{r.client, r.seq}] = r.result
	}
	for _, r := range b {
		want, ok := byKey[key{r.client, r.seq}]
		if !ok {
			continue
		}
		compared++
		if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(r.result)) {
			bad = append(bad, fmt.Sprintf("job client %d seq %d: local_compute and fleet_compute results differ", r.client, r.seq))
		}
	}
	return compared, bad
}
