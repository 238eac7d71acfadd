package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of report B against report A: worse
// when B is worse than A by more than the metric's bound, better when it is
// better by more than the bound, within otherwise, and unresolved when either
// side did not measure it.
func verdict(d metricDef, a, b value, okA, okB bool) string {
	if !okA || !okB || a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value // positive = larger
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "within"
}

// compareReports prints one row per (workload, end-to-end metric) and the
// exact-count checks, and returns exit code 1 if any row is worse.
func compareReports(w io.Writer, file *benchmarkFile, pathA, pathB string) (int, error) {
	a, err := readReport(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 2, err
	}
	worse := 0
	row := func(workload, metric, v string, av, bv value, bound string) {
		if v == "worse" {
			worse++
		}
		fmt.Fprintf(w, "%-14s %-28s %-10s %14.4f -> %14.4f %-6s %s\n", workload, metric, v, av.Value, bv.Value, av.Unit, bound)
	}
	for _, wl := range file.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		for _, d := range file.EndToEnd {
			av, okA := wa.Metrics[d.Name]
			bv, okB := wb.Metrics[d.Name]
			row(wl.Name, d.Name, verdict(d, av, bv, okA, okB), av, bv, fmt.Sprintf("(bound %g%%, %s is better)", d.Bound*100, d.Better))
		}
		// failed_frac has bound 0: any failure in B that A did not have is
		// worse.
		av, bv := wa.Metrics["failed_frac"], wb.Metrics["failed_frac"]
		v := "within"
		if bv.Value > av.Value || len(wb.Problems) > len(wa.Problems) {
			v = "worse"
		}
		row(wl.Name, "failed_frac", v, av, bv, "(bound 0)")
	}
	// Counts made by the program repeat exactly or something changed.
	first := file.Workloads[0].Name
	for _, d := range file.PerLayer {
		if !strings.HasPrefix(d.Name, "core.evals_to_target.") {
			continue
		}
		av, bv := a.Workloads[first].Metrics[d.Name], b.Workloads[first].Metrics[d.Name]
		v := "within"
		if av.Value != bv.Value {
			v = "worse"
		}
		row("probes", d.Name, v, av, bv, "(exact count)")
	}
	if worse > 0 {
		return 1, fmt.Errorf("%d rows are worse", worse)
	}
	return 0, nil
}
