// Package optroot implements the $OPTROOT directory protocol of Chapter 4,
// the user-facing input format of the optimization program:
//
//	$OPTROOT/
//	  input                      # row 1: d parameter names; rows 2..: vertices
//	  systems/<sysname>/run.sh   # phase-1 simulation script (+ input files)
//	  systems/<sysname>/<phase>/run.sh   # optional later phases, nested
//	  properties/prop*.sh        # property calculators (print one number)
//	  properties/prop*.val       # target value p0 (first line)
//	  properties/prop*.w         # optional tolerance weight w (default 1)
//
// Subdirectories of systems/ matching par[0-9]* are reserved for evaluation
// outputs ("new simulations ... are carried out in a new directory under the
// $OPTROOT/systems directory") and are never treated as systems. Job sizing
// follows the paper: one processor is requested per run.sh found.
//
// A Root evaluates the cost one script batch at a time (Evaluate). An
// Evaluator runs those batches as one simulation client of the MW
// deployment, so the optimizer samples a tree through mw.Space with Ns = 1,
// as cmd/mwopt does; the batches of concurrently sampled points run at once.
//
// The cost function follows eq 1.3, where the weights are *inverse*
// tolerances: g = sum_i (1/w_i^2) (p_i - p0_i)^2 / (p0_i)^2, so doubling w_i
// halves the penalty of a given relative error. (The application chapter's
// eq 3.4 writes the weight multiplicatively; internal/water follows that
// form. The two differ only by the convention w -> 1/w.)
package optroot

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// parDirPattern matches the reserved evaluation-output directories.
var parDirPattern = regexp.MustCompile(`^par[0-9]*$`)

// Phase is one simulation phase: a run.sh in a (possibly nested) directory.
type Phase struct {
	// RelDir is the phase directory relative to the system root ("." for
	// phase 1).
	RelDir string
	// Depth is 1 for the top-level run.sh, 2 for its subdirectories, etc.
	Depth int
}

// System is one simulated system under systems/.
type System struct {
	// Name is the directory name.
	Name string
	// Phases lists the run.sh phases, ordered parent-first and lexically
	// within a level.
	Phases []Phase
}

// PropertySpec is one target property.
type PropertySpec struct {
	// Name is the prop* basename (without extension).
	Name string
	// Target is the p0 value from prop*.val.
	Target float64
	// Weight is the tolerance w from prop*.w (1 if absent).
	Weight float64
	// Script is the absolute path of the calculator.
	Script string
}

// Root is a parsed $OPTROOT tree.
type Root struct {
	// Dir is the absolute root path.
	Dir string
	// ParamNames is the first row of the input file.
	ParamNames []string
	// InitialSimplex holds the d+1 starting vertices.
	InitialSimplex [][]float64
	// Systems lists the simulation systems.
	Systems []System
	// Properties lists the cost-function properties.
	Properties []PropertySpec
	// Seed, when non-zero, is exported to every phase and property script
	// as OPT_SEED, so stochastic user simulations can be reproduced from
	// the mwopt invocation that drove them.
	Seed int64

	evalSeq atomic.Int64

	mu  sync.Mutex
	err error // first batch failure an Evaluator met, surfaced via Err
}

// Load parses an $OPTROOT directory.
func Load(dir string) (*Root, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("optroot: %w", err)
	}
	r := &Root{Dir: abs}
	if err := r.loadInput(); err != nil {
		return nil, err
	}
	if err := r.loadSystems(); err != nil {
		return nil, err
	}
	if err := r.loadProperties(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Root) loadInput() error {
	data, err := os.ReadFile(filepath.Join(r.Dir, "input"))
	if err != nil {
		return fmt.Errorf("optroot: reading input file: %w", err)
	}
	lines := nonEmptyLines(string(data))
	if len(lines) < 2 {
		return fmt.Errorf("optroot: input file needs a name row and at least one vertex row")
	}
	r.ParamNames = strings.Fields(lines[0])
	d := len(r.ParamNames)
	if d == 0 {
		return fmt.Errorf("optroot: input file has an empty parameter-name row")
	}
	need := d + 1
	if len(lines)-1 < need {
		return fmt.Errorf("optroot: input file has %d vertex rows, need at least d+1 = %d", len(lines)-1, need)
	}
	for _, line := range lines[1 : need+1] {
		fields := strings.Fields(line)
		if len(fields) != d {
			return fmt.Errorf("optroot: vertex row %q has %d values, want %d", line, len(fields), d)
		}
		v := make([]float64, d)
		for i, f := range fields {
			v[i], err = strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("optroot: vertex value %q: %w", f, err)
			}
		}
		r.InitialSimplex = append(r.InitialSimplex, v)
	}
	return nil
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

func (r *Root) loadSystems() error {
	sysRoot := filepath.Join(r.Dir, "systems")
	entries, err := os.ReadDir(sysRoot)
	if err != nil {
		return fmt.Errorf("optroot: reading systems directory: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || parDirPattern.MatchString(e.Name()) {
			continue
		}
		sys := System{Name: e.Name()}
		if err := collectPhases(filepath.Join(sysRoot, e.Name()), ".", 1, &sys.Phases); err != nil {
			return err
		}
		if len(sys.Phases) == 0 {
			return fmt.Errorf("optroot: system %q has no run.sh", e.Name())
		}
		r.Systems = append(r.Systems, sys)
	}
	if len(r.Systems) == 0 {
		return fmt.Errorf("optroot: no systems found under %s", sysRoot)
	}
	sort.Slice(r.Systems, func(i, j int) bool { return r.Systems[i].Name < r.Systems[j].Name })
	return nil
}

// collectPhases walks a system directory parent-first: a run.sh in dir is a
// phase; every non-par subdirectory is a later phase.
func collectPhases(absDir, relDir string, depth int, out *[]Phase) error {
	if _, err := os.Stat(filepath.Join(absDir, "run.sh")); err == nil {
		*out = append(*out, Phase{RelDir: relDir, Depth: depth})
	}
	entries, err := os.ReadDir(absDir)
	if err != nil {
		return fmt.Errorf("optroot: %w", err)
	}
	var subs []string
	for _, e := range entries {
		if e.IsDir() && !parDirPattern.MatchString(e.Name()) {
			subs = append(subs, e.Name())
		}
	}
	sort.Strings(subs)
	for _, s := range subs {
		if err := collectPhases(filepath.Join(absDir, s), filepath.Join(relDir, s), depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

func (r *Root) loadProperties() error {
	propRoot := filepath.Join(r.Dir, "properties")
	entries, err := os.ReadDir(propRoot)
	if err != nil {
		return fmt.Errorf("optroot: reading properties directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "prop") || !strings.HasSuffix(name, ".sh") {
			continue
		}
		base := strings.TrimSuffix(name, ".sh")
		spec := PropertySpec{
			Name:   base,
			Weight: 1,
			Script: filepath.Join(propRoot, name),
		}
		valData, err := os.ReadFile(filepath.Join(propRoot, base+".val"))
		if err != nil {
			return fmt.Errorf("optroot: property %s has no target (.val): %w", base, err)
		}
		spec.Target, err = firstFloat(string(valData))
		if err != nil {
			return fmt.Errorf("optroot: property %s target: %w", base, err)
		}
		if wData, err := os.ReadFile(filepath.Join(propRoot, base+".w")); err == nil {
			w, err := firstFloat(string(wData))
			if err != nil {
				return fmt.Errorf("optroot: property %s weight: %w", base, err)
			}
			if w <= 0 {
				return fmt.Errorf("optroot: property %s weight must be positive, got %v", base, w)
			}
			spec.Weight = w
		}
		r.Properties = append(r.Properties, spec)
	}
	if len(r.Properties) == 0 {
		return fmt.Errorf("optroot: no prop*.sh calculators under %s", propRoot)
	}
	sort.Slice(r.Properties, func(i, j int) bool { return r.Properties[i].Name < r.Properties[j].Name })
	return nil
}

func firstFloat(s string) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, fmt.Errorf("no value found")
	}
	return strconv.ParseFloat(fields[0], 64)
}

// Processors returns the processor request for the job: one per run.sh, the
// sizing rule of section 4.2.
func (r *Root) Processors() int {
	n := 0
	for _, s := range r.Systems {
		n += len(s.Phases)
	}
	return n
}

// Dim returns the parameter-space dimension.
func (r *Root) Dim() int { return len(r.ParamNames) }

// Err returns the first script failure an Evaluator of the tree met, if any.
func (r *Root) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Root) noteErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// Evaluation is the result of one cost-function evaluation.
type Evaluation struct {
	// Dir is the par<N> directory the simulations ran in.
	Dir string
	// Properties holds the calculated p_i, ordered like Root.Properties.
	Properties []float64
	// Cost is the eq 1.3 value.
	Cost float64
}

// Evaluate runs every system's phases for the given parameter values in a
// fresh par<N> directory, then runs the property calculators and assembles
// the eq 1.3 cost. Scripts receive the parameters both as environment
// variables (PARAM_<name>) and in a params.txt file, and run with their
// phase directory as the working directory. Concurrent calls are safe: each
// claims the next par number as it starts.
func (r *Root) Evaluate(x []float64) (*Evaluation, error) {
	if len(x) != r.Dim() {
		return nil, fmt.Errorf("optroot: evaluate with %d values, want %d", len(x), r.Dim())
	}
	evalDir := filepath.Join(r.Dir, "systems", fmt.Sprintf("par%04d", r.evalSeq.Add(1)))
	if err := os.MkdirAll(evalDir, 0o755); err != nil {
		return nil, fmt.Errorf("optroot: %w", err)
	}

	env := append(os.Environ(), "OPTROOT="+r.Dir, "OPT_EVAL_DIR="+evalDir)
	if r.Seed != 0 {
		env = append(env, fmt.Sprintf("OPT_SEED=%d", r.Seed))
	}
	var params strings.Builder
	for i, name := range r.ParamNames {
		env = append(env, fmt.Sprintf("PARAM_%s=%g", name, x[i]))
		fmt.Fprintf(&params, "%s %g\n", name, x[i])
	}
	if err := os.WriteFile(filepath.Join(evalDir, "params.txt"), []byte(params.String()), 0o644); err != nil {
		return nil, fmt.Errorf("optroot: %w", err)
	}

	for _, sys := range r.Systems {
		src := filepath.Join(r.Dir, "systems", sys.Name)
		dst := filepath.Join(evalDir, sys.Name)
		if err := copyTree(src, dst); err != nil {
			return nil, fmt.Errorf("optroot: staging system %s: %w", sys.Name, err)
		}
		for _, ph := range sys.Phases {
			workDir := filepath.Join(dst, ph.RelDir)
			cmd := exec.Command("/bin/sh", "run.sh")
			cmd.Dir = workDir
			cmd.Env = env
			if out, err := cmd.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("optroot: system %s phase %s: %w (output: %s)",
					sys.Name, ph.RelDir, err, strings.TrimSpace(string(out)))
			}
		}
	}

	ev := &Evaluation{Dir: evalDir}
	for _, spec := range r.Properties {
		cmd := exec.Command("/bin/sh", spec.Script)
		cmd.Dir = evalDir
		cmd.Env = env
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("optroot: property %s: %w", spec.Name, err)
		}
		p, err := firstFloat(string(out))
		if err != nil {
			return nil, fmt.Errorf("optroot: property %s output %q: %w", spec.Name, out, err)
		}
		ev.Properties = append(ev.Properties, p)
	}
	ev.Cost = r.cost(ev.Properties)
	return ev, nil
}

// cost evaluates eq 1.3 with inverse-tolerance weights.
func (r *Root) cost(props []float64) float64 {
	g := 0.0
	for i, spec := range r.Properties {
		scale := spec.Target
		if scale == 0 {
			scale = 1 // zero targets fall back to absolute residuals
		}
		rel := (props[i] - spec.Target) / scale
		g += rel * rel / (spec.Weight * spec.Weight)
	}
	return g
}

// copyTree recursively copies a directory, skipping reserved par* dirs.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if parDirPattern.MatchString(d.Name()) && rel != "." {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
}
