// Command experiments regenerates every table and figure of the paper's
// evaluation chapter. List the available artifacts with -list, run one with
// -run Table3.1 (etc.), or run everything with -run all.
//
// -quick switches to a reduced protocol (fewer initial states, smaller
// sampling budgets) suitable for CI; the default is the paper-scale
// protocol (100 initial simplex states, five inputs, three noise levels).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		runName = flag.String("run", "", "experiment to run (e.g. Table3.1, Fig3.5), or 'all'")
		quick   = flag.Bool("quick", false, "reduced protocol for smoke runs")
		seed    = flag.Int64("seed", 1, "base random seed")
		list    = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()
	fmt.Printf("experiments: seed=%d quick=%v\n", *seed, *quick)

	if *list || *runName == "" {
		fmt.Println("Available experiments:")
		for _, d := range experiments.Registry() {
			fmt.Printf("  %-10s %s\n", d.Name, d.Paper)
		}
		if *runName == "" {
			fmt.Println("\nSelect one with -run <name> or -run all.")
		}
		return
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	var drivers []experiments.Driver
	if *runName == "all" {
		drivers = experiments.Registry()
	} else {
		d, err := experiments.ByName(*runName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		drivers = []experiments.Driver{d}
	}

	for _, d := range drivers {
		start := time.Now()
		out, err := d.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%s) [%.1fs] ====\n%s\n", d.Name, d.Paper, time.Since(start).Seconds(), out)
	}
}
