package repro

// One benchmark per table and figure of the paper's evaluation chapter.
// Each benchmark executes the corresponding experiment driver at the quick
// protocol scale, so `go test -bench=. -benchmem` regenerates a reduced
// version of every artifact and reports its cost. The full-scale artifacts
// come from `go run ./cmd/experiments -run all`.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func benchDriver(b *testing.B, name string) {
	b.Helper()
	d, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := d.Run(experiments.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

func BenchmarkTable31(b *testing.B) { benchDriver(b, "Table3.1") }
func BenchmarkTable32(b *testing.B) { benchDriver(b, "Table3.2") }
func BenchmarkTable33(b *testing.B) { benchDriver(b, "Table3.3") }
func BenchmarkTable34(b *testing.B) { benchDriver(b, "Table3.4") }
func BenchmarkTable35(b *testing.B) { benchDriver(b, "Table3.5") }
func BenchmarkFig33(b *testing.B)   { benchDriver(b, "Fig3.3") }
func BenchmarkFig34(b *testing.B)   { benchDriver(b, "Fig3.4") }
func BenchmarkFig35(b *testing.B)   { benchDriver(b, "Fig3.5") }
func BenchmarkFig36(b *testing.B)   { benchDriver(b, "Fig3.6") }
func BenchmarkFig37(b *testing.B)   { benchDriver(b, "Fig3.7") }
func BenchmarkFig38(b *testing.B)   { benchDriver(b, "Fig3.8") }
func BenchmarkFig39(b *testing.B)   { benchDriver(b, "Fig3.9") }
func BenchmarkFig310(b *testing.B)  { benchDriver(b, "Fig3.10") }
func BenchmarkFig311(b *testing.B)  { benchDriver(b, "Fig3.11") }
func BenchmarkFig312(b *testing.B)  { benchDriver(b, "Fig3.12") }
func BenchmarkFig313(b *testing.B)  { benchDriver(b, "Fig3.13") }
func BenchmarkFig314(b *testing.B)  { benchDriver(b, "Fig3.14") }
func BenchmarkFig315(b *testing.B)  { benchDriver(b, "Fig3.15") }
func BenchmarkFig316(b *testing.B)  { benchDriver(b, "Fig3.16") }
func BenchmarkFig317(b *testing.B)  { benchDriver(b, "Fig3.17") }
func BenchmarkFig318(b *testing.B)  { benchDriver(b, "Fig3.18") }
func BenchmarkFig319(b *testing.B)  { benchDriver(b, "Fig3.19") }
func BenchmarkFig320(b *testing.B)  { benchDriver(b, "Fig3.20") }

// Ablation benchmarks: the cost of the stochastic decision machinery itself,
// per algorithm, on one fixed noisy Rosenbrock workload.
func benchAlgorithm(b *testing.B, alg core.Algorithm) {
	b.Helper()
	initial := [][]float64{
		{-3, -3, -3}, {4, -2, 1}, {-1, 3, -2}, {2, 2, 4},
	}
	for i := 0; i < b.N; i++ {
		space := NewLocalSpace(LocalConfig{
			Dim:      3,
			F:        rosen3,
			Sigma0:   ConstSigma(100),
			Seed:     int64(i + 1),
			Parallel: true,
		})
		cfg := DefaultConfig(alg)
		cfg.MaxWalltime = 2e4
		cfg.Tol = 0
		if _, err := Run(context.Background(), space, WithConfig(cfg), WithInitialSimplex(initial)); err != nil {
			b.Fatal(err)
		}
	}
}

func rosen3(x []float64) float64 {
	sum := 0.0
	for i := 1; i < len(x); i++ {
		a := 1 - x[i-1]
		c := x[i] - x[i-1]*x[i-1]
		sum += a*a + 100*c*c
	}
	return sum
}

func BenchmarkAlgorithmDET(b *testing.B)      { benchAlgorithm(b, core.DET) }
func BenchmarkAlgorithmMN(b *testing.B)       { benchAlgorithm(b, core.MN) }
func BenchmarkAlgorithmPC(b *testing.B)       { benchAlgorithm(b, core.PC) }
func BenchmarkAlgorithmPCMN(b *testing.B)     { benchAlgorithm(b, core.PCMN) }
func BenchmarkAlgorithmAnderson(b *testing.B) { benchAlgorithm(b, core.AndersonNM) }
