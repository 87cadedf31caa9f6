package m3e_test

import (
	"fmt"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/rng"
	"magma/internal/workload"
)

// benchProblem is the paper's operating point for the hot-path
// benchmarks: one 100-job Mix group on S2 at 16 GB/s (§VI-B).
func benchProblem(b *testing.B) *m3e.Problem {
	b.Helper()
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: 100, GroupSize: 100, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], platform.S2().WithBW(16), m3e.Throughput)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// BenchmarkEvaluate measures single-mapping fitness evaluation — the
// unit of the 10K-sample budget — on the steady-state hot path: one
// reused Evaluator, as each worker of the parallel engine runs it.
// Target: 0 allocs/op (see DESIGN.md "Hot path").
func BenchmarkEvaluate(b *testing.B) {
	prob := benchProblem(b)
	g := encoding.Random(100, prob.NumAccels(), rng.New(1))
	ev := prob.NewEvaluator()
	if _, err := ev.Evaluate(g); err != nil { // warm up scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateFresh measures the same evaluation through the
// allocating convenience path (fresh scratch per call) — the before
// side of the zero-allocation rework.
func BenchmarkEvaluateFresh(b *testing.B) {
	prob := benchProblem(b)
	g := encoding.Random(100, prob.NumAccels(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzerBuild measures job-analysis-table construction (the
// pre-process step of §IV-E).
func BenchmarkAnalyzerBuild(b *testing.B) {
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: 100, GroupSize: 100, Seed: 52})
	if err != nil {
		b.Fatal(err)
	}
	p := platform.S4()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m3e.NewProblem(w.Groups[0], p, m3e.Throughput); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAGMAGeneration measures one MAGMA generation at the paper's
// group size — Ask, the pool scoring the full batch, and Tell breeding
// on the same workers — across pool widths. It skips the runner's
// pruning pass and the cache, so every genome is simulated: the route
// that shows the pool's fan-out. workers=1 is the serial baseline, and
// cmd/bench reports the best parallel width's speedup over it as
// speedup_vs_serial (bounded by the machine's core count).
func BenchmarkMAGMAGeneration(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prob := benchProblem(b)
			opt := optmagma.New(optmagma.Config{})
			if err := opt.Init(prob, rng.New(2)); err != nil {
				b.Fatal(err)
			}
			pool := m3e.NewPool(prob, workers)
			opt.SetBreeder(pool) // Tell breeds on the same worker set
			fit := make([]float64, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := opt.Ask()
				pool.Evaluate(pop, fit[:len(pop)])
				opt.Tell(pop, fit[:len(pop)])
			}
		})
	}
}
