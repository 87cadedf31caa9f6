// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), each regenerating the artifact through the
// internal/experiments harness at a CI-friendly scale, plus ablation
// benches for the design choices called out in DESIGN.md. The hot-path
// micro-benchmarks live in the packages they measure; cmd/bench
// collects them.
//
// Regenerate everything at paper scale with:
//
//	go run ./cmd/experiments -exp all -full
//
// Run the bench suite (quick scale, prints each artifact once) with:
//
//	go test -bench=. -benchmem
package magma_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"magma/internal/experiments"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/workload"
)

// benchConfig is the scaled-down experiment configuration used by the
// benchmark suite. MAGMA_BENCH_FULL=1 switches to paper scale.
func benchConfig() experiments.Config {
	if os.Getenv("MAGMA_BENCH_FULL") != "" {
		return experiments.Full()
	}
	c := experiments.Quick()
	c.Budget = 400
	c.GroupSize = 24
	c.RLHidden = 16
	return c
}

// benchOut prints the artifact on the first iteration only (the
// benchmark numbers then time the regeneration itself).
func benchOut(b *testing.B, i int) io.Writer {
	if i == 0 && testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(cfg, benchOut(b, i)); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig7JobAnalysis(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8Homogeneous(b *testing.B)       { runExperiment(b, "fig8") }
func BenchmarkFig9Heterogeneous(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10Exploration(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11Convergence(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12BWSweep(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFig13SubAccelCombos(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14Flexible(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkFig15Visualization(b *testing.B)    { runExperiment(b, "fig15") }
func BenchmarkFig16OperatorAblation(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFig17GroupSize(b *testing.B)        { runExperiment(b, "fig17") }
func BenchmarkTableVWarmStart(b *testing.B)       { runExperiment(b, "tab5") }

// --- Ablation benches (DESIGN.md design choices) ---

func benchProblem(b *testing.B, task models.Task, n int, p platform.Platform) *m3e.Problem {
	b.Helper()
	w, err := workload.Generate(workload.Config{Task: task, NumJobs: n, GroupSize: n, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], p, m3e.Throughput)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// BenchmarkAblationPopulation sweeps MAGMA's population size around the
// paper's population = group-size rule.
func BenchmarkAblationPopulation(b *testing.B) {
	prob := benchProblem(b, models.Mix, 32, platform.S2().WithBW(16))
	for _, pop := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("pop%d", pop), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				res, err := m3e.Run(prob, optmagma.New(optmagma.Config{Population: pop}),
					m3e.Options{Budget: 512}, 3)
				if err != nil {
					b.Fatal(err)
				}
				best = res.BestFitness
			}
			b.ReportMetric(best, "GFLOPs")
		})
	}
}

// BenchmarkAblationObjective runs MAGMA under each supported objective.
func BenchmarkAblationObjective(b *testing.B) {
	for _, obj := range []m3e.Objective{m3e.Throughput, m3e.Latency, m3e.Energy, m3e.EDP} {
		b.Run(obj.String(), func(b *testing.B) {
			prob := benchProblem(b, models.Mix, 24, platform.S2().WithBW(16))
			prob.Objective = obj
			for i := 0; i < b.N; i++ {
				if _, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
					m3e.Options{Budget: 240}, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
