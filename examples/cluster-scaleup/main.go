// Cluster-scaleup: the section 3.4 study — optimize the Rosenbrock function
// in growing dimension over the full MW deployment and watch the process
// counts and per-step cost scale (Table 3.3 / Fig 3.18).
//
//	go run ./examples/cluster-scaleup
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/mw"
	"repro/internal/testfunc"
)

func main() {
	fmt.Println("d     workers  servers  clients  total  formula(dNs+3Ns+2d+7)  steps  time/step")
	for _, d := range []int{10, 20, 50} {
		space, err := repro.NewMWSpace(repro.MWSpaceConfig{
			Dim: d,
			Ns:  1,
			NewSystem: func(rank, sys int) repro.SystemEvaluator {
				return &mw.FuncSystem{
					F:      testfunc.Rosenbrock,
					Sigma0: func([]float64) float64 { return 1 },
					Rng:    rand.New(rand.NewSource(int64(rank))),
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(d)))
		initial := make([][]float64, d+1)
		for i := range initial {
			initial[i] = make([]float64, d)
			for j := range initial[i] {
				initial[i][j] = rng.Float64()*6 - 3
			}
		}

		cfg := repro.DefaultConfig(repro.MN)
		cfg.MaxIterations = 40
		cfg.Tol = 0
		cfg.MaxWalltime = 0
		cfg.OverheadBase = 0.5
		cfg.OverheadPerDim = 0.05 // master bookkeeping + file I/O per step

		res, err := repro.Run(context.Background(), space,
			repro.WithConfig(cfg), repro.WithInitialSimplex(initial))
		if err != nil {
			log.Fatal(err)
		}
		procs := space.Processes()
		fmt.Printf("%-5d %-8d %-8d %-8d %-6d %-21d %-6d %.2fs\n",
			d,
			procs.Workers, procs.Servers, procs.Clients,
			procs.Total(), mw.ExpectedProcesses(d, 1),
			res.Iterations, res.Walltime/float64(res.Iterations))
		space.Shutdown()
	}
}
