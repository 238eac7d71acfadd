package lint

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// linkTable lists, per target, every repro/ package the target may link,
// directly or not. A binary links what it runs and nothing more, so an
// engine package that leaks into the router or the agent fails here.
var linkTable = []struct {
	target string
	links  []string
}{
	{"cmd/optd", []string{"internal/core", "internal/dist", "internal/h1", "internal/jobs", "internal/jobstore", "internal/noise",
		"internal/obs", "internal/pso", "internal/sched", "internal/serve", "internal/sim", "internal/testfunc", "internal/vtime"}},
	{"cmd/optrouter", []string{"internal/h1", "internal/obs", "internal/shard"}},
	{"cmd/optworker", []string{"internal/dist", "internal/h1", "internal/noise", "internal/obs", "internal/testfunc"}},
	{"internal/h1", nil},
	{"internal/shard", []string{"internal/h1", "internal/obs"}},
	{"internal/obs", nil},
}

// linkWaivers are links a target still makes that it does not run, one row
// per link with the reason it stays. The row goes with the link.
var linkWaivers = []struct {
	target, link, reason string
}{
	{"cmd/optworker", "internal/sim", "dist implements sim.FleetSampler; goes when the fleet is the one dispatch engine behind the one Space (ROADMAP items 4 and 11)"},
	{"cmd/optworker", "internal/sched", "linked through sim; goes with it (ROADMAP items 4 and 11)"},
	{"cmd/optworker", "internal/vtime", "linked through sim; goes with it (ROADMAP items 4 and 11)"},
}

// TestLinkTable fails when a target of linkTable links a repro/ package that
// neither its row nor a waiver allows, and when its row or a waiver names a
// package the target no longer links.
func TestLinkTable(t *testing.T) {
	const module = "repro/"
	var patterns []string
	for _, row := range linkTable {
		patterns = append(patterns, "./"+row.target)
	}
	listed, err := goList("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{}
	for _, p := range listed {
		imports[p.ImportPath] = p.Imports
	}
	for _, row := range linkTable {
		t.Run(row.target, func(t *testing.T) {
			allowed := map[string]string{}
			for _, l := range row.links {
				allowed[l] = "its row"
			}
			for _, w := range linkWaivers {
				if w.target == row.target {
					allowed[w.link] = "a waiver"
				}
			}
			// Every repro/ package the target reaches through its imports.
			links := map[string]bool{}
			queue := []string{module + row.target}
			for len(queue) > 0 {
				p := queue[0]
				queue = queue[1:]
				for _, imp := range imports[p] {
					if name, ok := strings.CutPrefix(imp, module); ok && !links[name] {
						links[name] = true
						queue = append(queue, imp)
					}
				}
			}
			for _, l := range slices.Sorted(maps.Keys(links)) {
				if allowed[l] == "" {
					t.Errorf("%s links %s, which neither its row nor a waiver allows", row.target, l)
				}
			}
			for _, l := range slices.Sorted(maps.Keys(allowed)) {
				if !links[l] {
					t.Errorf("%s names %s, which %s does not link; delete it", allowed[l], l, row.target)
				}
			}
		})
	}
}
