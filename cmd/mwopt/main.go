// Command mwopt is the Chapter-4 optimization program: it consumes an
// $OPTROOT directory tree (input file, systems/<name>/run.sh phases,
// properties/prop*.{sh,val,w}), sizes the processor request (one per run.sh
// found), and runs the stochastic simplex over the user's simulation
// scripts.
//
//	mwopt -alg det -iters 50 /path/to/optroot
//
// The simplex samples on the section-3.1 MW deployment (mw.Space): d+3
// vertex workers, each with one simulation client that runs the tree's
// whole script batch (optroot.Evaluator). The batches of the vertices
// sampled together run concurrently, each in its own par<N> directory
// whose params.txt names its point; par numbers are unique but follow the
// order in which batches start, so a reproducible script draws its
// randomness from OPT_SEED and its PARAM_* values, never from the par
// number.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/mw"
	"repro/internal/optroot"
)

// errUsage reports a malformed command line.
var errUsage = errors.New("usage: mwopt [flags] <OPTROOT>")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		os.Exit(1)
	}
}

// run is the whole program: it parses args, prints to stdout, and returns
// the first fatal error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mwopt", flag.ContinueOnError)
	var (
		algName = fs.String("alg", "det", "algorithm: det, mn, pc, pc+mn, anderson")
		iters   = fs.Int("iters", 50, "maximum simplex iterations")
		tol     = fs.Float64("tol", 1e-6, "spread termination tolerance")
		samples = fs.Float64("resample", 1, "sampling batches per wait round")
		seed    = fs.Int64("seed", 1, "random seed, exported to user scripts as OPT_SEED")
	)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil, fs.NArg() != 1:
		return errUsage
	}
	fmt.Fprintf(stdout, "mwopt: seed=%d\n", *seed)

	root, err := optroot.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	root.Seed = *seed
	fmt.Fprintf(stdout, "OPTROOT %s\n", root.Dir)
	fmt.Fprintf(stdout, "parameters: %v (d=%d)\n", root.ParamNames, root.Dim())
	fmt.Fprintf(stdout, "systems: %d, properties: %d\n", len(root.Systems), len(root.Properties))
	fmt.Fprintf(stdout, "processor request: %d (one per run.sh)\n", root.Processors())

	// Show the section-4.2 machinefile allocation for the equivalent MW
	// deployment (Ns = number of systems).
	d := root.Dim()
	ns := len(root.Systems)
	need := mw.ExpectedProcesses(d, ns)
	machines := mw.GenerateMachinefile(need/8+1, 8)
	if alloc, allocErr := machines.Allocate(d, ns); allocErr == nil {
		fmt.Fprintf(stdout, "MW deployment: %d processes (1 master, %d workers, %d servers, %d clients) over %d nodes\n",
			alloc.Total(), d+3, d+3, (d+3)*ns, len(alloc.NodeUsage()))
	}

	alg, err := repro.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	cfg := repro.DefaultConfig(alg)
	cfg.MaxIterations = *iters
	cfg.Tol = *tol
	cfg.Resample = *samples
	cfg.MaxWalltime = 0

	space, err := mw.NewSpace(mw.SpaceConfig{Dim: d, Ns: 1,
		NewSystem: func(int, int) mw.SystemEvaluator { return root.NewEvaluator() }})
	if err != nil {
		return err
	}
	defer space.Shutdown()
	res, err := repro.Run(context.Background(), space,
		repro.WithConfig(cfg),
		repro.WithInitialSimplex(root.InitialSimplex),
		repro.WithTrace(func(e repro.TraceEvent) {
			fmt.Fprintf(stdout, "iter %4d  g(best)=%.6g  move=%s\n", e.Iter, e.Best, e.Move)
		}))
	if err != nil {
		return err
	}
	if serr := root.Err(); serr != nil {
		fmt.Fprintf(os.Stderr, "warning: some evaluations failed: %v\n", serr)
	}

	fmt.Fprintf(stdout, "\nterminated (%s) after %d iterations, %d evaluations\n",
		res.Termination, res.Iterations, res.Evaluations)
	fmt.Fprintf(stdout, "best cost: %.6g\n", res.BestG)
	fmt.Fprintln(stdout, "best parameters:")
	for i, name := range root.ParamNames {
		fmt.Fprintf(stdout, "  %-12s %.6g\n", name, res.BestX[i])
	}
	return nil
}
