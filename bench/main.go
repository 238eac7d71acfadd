// Command bench is the repository's benchmark: one layered, real-compute,
// real-binary measurement of submit-to-done latency, evaluations per second
// and per-layer cost. BENCHMARK.json at the module root names every metric,
// workload and bound; bench/README.md is the catalogue.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's contract)
//	go run ./bench -seed N -out FILE                               every workload, both passes, written to FILE
//	go run ./bench -compare A.json B.json                          judge B against A by BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print the contract's result line (empty = all, written to -out)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same job specs")
		seconds      = flag.Float64("seconds", 0, "measured window per workload (0 = BENCHMARK.json's run_seconds)")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "without -workload: write the full report here (default bench/out/report.json)")
		compare      = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	)
	flag.Parse()
	code, err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *compare, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(workloadName string, seed int64, seconds float64, trace bool, out string, compare bool, args []string) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 1, err
	}
	file, err := loadBenchmarkFile(root)
	if err != nil {
		return 1, err
	}
	if compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare wants two report files")
		}
		return compareReports(os.Stdout, file, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(file.RunSeconds)
	}
	e := env{root: root, out: filepath.Join(root, "bench", "out"), nproc: runtime.NumCPU()}
	if err = os.MkdirAll(filepath.Join(e.out, "bin"), 0o755); err != nil {
		return 1, err
	}
	e.procs = newProcs(e.out)
	defer e.procs.stopAll()
	// A signal must not leave children behind: they are in their own process
	// groups, so the terminal's Ctrl-C does not reach them.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "bench: received %s; stopping children\n", sig)
		e.procs.stopAll()
		os.Exit(130)
	}()
	defer os.RemoveAll(filepath.Join(e.out, "tmp"))

	if out == "" {
		out = filepath.Join(e.out, "report.json")
	}
	rep := report{Env: describeEnv(e), Seed: seed, Seconds: seconds, Valid: true, Workloads: map[string]workloadReport{}}
	if e.nproc < 2 {
		// The legacy BENCH files were recorded at num_cpu 1, where parallel
		// compute cannot show. Refuse to repeat that.
		err = fmt.Errorf("nproc = %d: the benchmark needs at least 2 CPUs", e.nproc)
		if workloadName == "" {
			rep.Valid, rep.Problems = false, []string{err.Error()}
			err = errors.Join(err, rep.write(out))
		}
		return 1, err
	}
	build, err := buildBinaries(e.root, e.out)
	if err != nil {
		return 1, err
	}
	opts := runOpts{seed: seed, seconds: seconds, setups: 7, gated: true, real: true,
		tracedSeconds: tracedShare * seconds, probeScale: 1, buildS: build.Seconds()}

	if workloadName != "" {
		w, ok := workloadByName(workloadName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", workloadName)
		}
		if opts.trace = trace; trace {
			// The driver gives a per-layer run the same time as an end-to-end
			// run, so the passes share it: a shorter end-to-end window (only
			// its counters are printed), one set-up, smaller probe loops.
			opts.seconds, opts.setups, opts.gated, opts.probeScale = perLayerShare*seconds, 1, false, 0.25
		}
		var res *runResult
		if res, err = runWorkload(w, e, file, opts); err != nil {
			return 1, err
		}
		defs := file.EndToEnd
		if trace {
			defs = file.PerLayer
		}
		var line string
		if line, err = res.line(defs); err != nil {
			return 1, err
		}
		printMetrics(os.Stderr, w.name, res.metrics)
		fmt.Println(line)
		if len(res.problems) > 0 {
			return 1, fmt.Errorf("%s: run is not valid:\n%s", w.name, res.report())
		}
		return 0, nil
	}

	// Full report: every workload, end-to-end pass then traced pass, the
	// micro-probes once.
	opts.trace = true
	var recs = map[string][]*jobRec{}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		var res *runResult
		if res, err = runWorkload(w, e, file, opts); err != nil {
			return 1, err
		}
		opts.probes = res.probes // measured by the first workload, shared by the rest
		recs[w.name] = res.recs
		rep.Workloads[w.name] = workloadReport{Attempted: res.attempted, Failed: res.failed, Problems: res.problems, Metrics: res.metrics}
		rep.Valid = rep.Valid && len(res.problems) == 0
		printMetrics(os.Stdout, w.name, res.metrics)
	}
	compared, bad := crossCheck(recs["local_compute"], recs["fleet_compute"])
	fmt.Printf("cross-check: %d jobs completed by both local_compute and fleet_compute, %d differ\n", compared, len(bad))
	if len(bad) > 0 {
		rep.Valid = false
		rep.Problems = bad
	}
	if err = rep.write(out); err != nil {
		return 1, err
	}
	fmt.Printf("report written to %s (valid: %v)\n", out, rep.Valid)
	if !rep.Valid {
		return 1, fmt.Errorf("the run is not valid; see the problems in %s", out)
	}
	return 0, nil
}

// Shares of -seconds: each in-process window of the traced pass, and the
// end-to-end window of a driver run that prints only per-layer metrics.
const (
	tracedShare   = 0.2
	perLayerShare = 0.4
)

// report is the full run's output file, the input of -compare.
type report struct {
	Env       map[string]string         `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Valid     bool                      `json:"valid"`
	Problems  []string                  `json:"problems,omitempty"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func (r report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics prints every metric by name with its unit.
func printMetrics(w *os.File, workload string, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := metrics[name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "%-14s %-32s %14.4f %s%s\n", workload, name, v.Value, v.Unit, n)
	}
}

// describeEnv records where the numbers were taken.
func describeEnv(e env) map[string]string {
	cmdOut := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = e.root
		b, err := cmd.Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(e.nproc),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     cmdOut("git", "rev-parse", "HEAD"),
		"kernel":     cmdOut("uname", "-sr"),
		"store_fs":   cmdOut("stat", "-f", "-c", "%T", e.out),
	}
}

// moduleRoot is the directory holding go.mod, searched upwards from the
// working directory: `go run ./bench` starts at the root, `go test` in bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
