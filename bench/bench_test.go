package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jobs"
)

func loadFile(t *testing.T) (string, *benchmarkFile) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	file, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, file
}

// TestSmoke runs every workload's in-process assembly, plain then traced, with
// a 1 s window, and checks what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 1 s windows twice")
	}
	root, file := loadFile(t)
	e := env{root: root, out: t.TempDir(), nproc: runtime.NumCPU()}
	o := runOpts{seed: 1, seconds: 1, setups: 1, trace: true, tracedSeconds: 1, probeScale: 0.01}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, file.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(w, e, file, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		o.probes = res.probes
		// problems holds failed jobs, replay mismatches and every metric
		// emitted twice, unnamed or not finite.
		if len(res.problems) > 0 || res.failed > 0 {
			t.Errorf("%s: %d failed of %d:\n%s", w.name, res.failed, res.attempted, res.report())
		}
		if res.attempted == 0 {
			t.Errorf("%s: no job attempted", w.name)
		}
		for _, defs := range [][]metricDef{file.EndToEnd, file.PerLayer} {
			for _, d := range defs {
				if v, ok := res.metrics[d.Name]; !ok {
					t.Errorf("%s: metric %s was not emitted", w.name, d.Name)
				} else if v.Unit == "" || v.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
			if _, err := res.line(defs); err != nil {
				t.Errorf("%s: result line: %v", w.name, err)
			}
		}
		if len(res.metrics) != len(file.EndToEnd)+len(file.PerLayer) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w.name, len(res.metrics), len(file.EndToEnd)+len(file.PerLayer))
		}
		if v := res.metrics["failed_frac"].Value; v != 0 {
			t.Errorf("%s: failed_frac = %v", w.name, v)
		}
		checkSpans(t, w, filepath.Join(e.out, "trace-"+w.name+".json"))
	}
}

// checkSpans reads a written trace back: every parent is a span of the file,
// and the spans the workload's topology must produce are there.
func checkSpans(t *testing.T, w workload, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := make(map[int64]bool, len(spans))
	names := map[string]int{}
	for _, s := range spans {
		ids[s.ID] = true
		names[s.Name]++
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s, job %s) has parent %d, which is not in the trace", w.name, s.ID, s.Name, s.Job, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", w.name, s.ID, s.Name)
		}
	}
	want := map[string][]string{
		"local_compute": {"job", "client.submit", "jobs.run"},
		"fleet_compute": {"serve.submit", "dist.sample_fleet", "jobs.run"},
		"serve_small":   {"shard.submit", "serve.submit", "shard.result", "serve.result"},
		"ckpt_stream":   {"serve.trace", "jobstore.put", "jobstore.delete", "jobs.run"},
	}
	for _, name := range want[w.name] {
		if names[name] == 0 {
			t.Errorf("%s: the trace has no %s span", w.name, name)
		}
	}
}

// TestCorruptedResultIsCaught is the verification's negative test: the replay
// accepts the body a manager really returned and refuses the same body with
// one digit changed.
func TestCorruptedResultIsCaught(t *testing.T) {
	mgr, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	w, _ := workloadByName("serve_small")
	spec := w.spec(7, 0, 0)
	id, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	rec := &jobRec{id: id, spec: spec, result: good}
	if bad := verifyReplay([]*jobRec{rec}, verifySample); len(bad) != 0 {
		t.Fatalf("the true result was refused: %v", bad)
	}
	i := strings.IndexAny(string(good), "123456789")
	if i < 0 {
		t.Fatalf("no digit to corrupt in %s", good)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[i] = '0'
	rec.result = corrupt
	if bad := verifyReplay([]*jobRec{rec}, verifySample); len(bad) != 1 {
		t.Fatalf("a corrupted result gave %d mismatches, want 1: %v", len(bad), bad)
	}
	if _, bad := crossCheck([]*jobRec{{result: good}}, []*jobRec{{result: corrupt}}); len(bad) != 1 {
		t.Fatalf("crossCheck passed two different results: %v", bad)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	sorted := make([]float64, 109)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, err := percentile(sorted, 90); err != nil || v != 99 {
		t.Errorf("p90 of 1..109 = %v, %v; want 99 with 10 samples beyond it", v, err)
	}
	if _, err := percentile(sorted[:99], 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(sorted, 99); err == nil {
		t.Error("p99 of 109 samples was not refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples was not refused")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want string
	}{
		{lower, 100, 109, "within"},
		{lower, 100, 111, "worse"},
		{lower, 100, 89, "better"},
		{higher, 100, 89, "worse"},
		{higher, 100, 111, "better"},
		{higher, 100, 95, "within"},
		{higher, 0, 95, "unresolved"},
	} {
		if got := verdict(c.d, value{Value: c.a}, value{Value: c.b}, true, true); got != c.want {
			t.Errorf("%s (%s is better) %v -> %v: %s, want %s", c.d.Name, c.d.Better, c.a, c.b, got, c.want)
		}
	}
	if got := verdict(lower, value{Value: 1}, value{}, true, false); got != "unresolved" {
		t.Errorf("a metric one side lacks is %s, want unresolved", got)
	}
}

// TestBenchmarkFileContract holds BENCHMARK.json to the limits the driver
// refuses a file for.
func TestBenchmarkFileContract(t *testing.T) {
	_, file := loadFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a legal name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range file.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range file.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range file.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), file.EndToEnd...), file.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a legal unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}
