// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), each regenerating the artifact through the
// internal/experiments harness at a CI-friendly scale, plus ablation
// benches for the design choices called out in DESIGN.md and
// micro-benchmarks of the hot paths.
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

	"magma/internal/encoding"
	"magma/internal/experiments"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/sim"
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

// BenchmarkAblationAllocator compares the paper-literal Proportional
// bandwidth rule against work-conserving WaterFill on the same mapping:
// the throughput ratio it reports (metric "prop/waterfill") quantifies
// how much the Algorithm 1 coupling punishes naive co-scheduling.
func BenchmarkAblationAllocator(b *testing.B) {
	prob := benchProblem(b, models.Mix, 48, platform.S2().WithBW(8))
	m := sim.Mapping{Queues: make([][]int, prob.NumAccels())}
	for j := 0; j < prob.NumJobs(); j++ {
		a := j % prob.NumAccels()
		m.Queues[a] = append(m.Queues[a], j)
	}
	var prop, wf sim.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop, err = sim.Run(prob.Table, m, sim.Options{Policy: sim.Proportional})
		if err != nil {
			b.Fatal(err)
		}
		wf, err = sim.Run(prob.Table, m, sim.Options{Policy: sim.WaterFill})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(prop.ThroughputGFLOPs/wf.ThroughputGFLOPs, "prop/waterfill")
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

// --- Micro-benchmarks of the hot paths ---

// BenchmarkEvaluate measures single-mapping fitness evaluation — the
// unit of the 10K-sample budget — on the steady-state hot path: one
// reused Evaluator, as each worker of the parallel engine runs it.
// Target: 0 allocs/op (see DESIGN.md "Hot path").
func BenchmarkEvaluate(b *testing.B) {
	prob := benchProblem(b, models.Mix, 100, platform.S2().WithBW(16))
	g := encoding.Random(100, prob.NumAccels(), newRand(1))
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
	prob := benchProblem(b, models.Mix, 100, platform.S2().WithBW(16))
	g := encoding.Random(100, prob.NumAccels(), newRand(1))
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

// BenchmarkMAGMAGeneration measures one full MAGMA generation
// (evaluate population + breed) at the paper's group size, across
// worker-pool widths. workers=1 is the serial baseline; the speedup at
// workers=N is the parallel evaluation engine's payoff (bounded by the
// machine's core count — see DESIGN.md for measured numbers).
func BenchmarkMAGMAGeneration(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prob := benchProblem(b, models.Mix, 100, platform.S2().WithBW(16))
			opt := optmagma.New(optmagma.Config{})
			if err := opt.Init(prob, newRand(2)); err != nil {
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

// BenchmarkMAGMAGenerationCached runs the same generation loop through
// the schedule-fingerprint fitness cache: duplicate elites and
// schedule-equivalent offspring skip the simulator, with bit-identical
// fitness (see internal/m3e.FitnessCache). The cache hit rate is
// reported as the hit_pct metric.
func BenchmarkMAGMAGenerationCached(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prob := benchProblem(b, models.Mix, 100, platform.S2().WithBW(16))
			opt := optmagma.New(optmagma.Config{})
			if err := opt.Init(prob, newRand(2)); err != nil {
				b.Fatal(err)
			}
			pool := m3e.NewPool(prob, workers)
			opt.SetBreeder(pool)
			cache := m3e.NewFitnessCache(prob, 0)
			fit := make([]float64, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := opt.Ask()
				cache.Evaluate(pool, pop, fit[:len(pop)])
				opt.Tell(pop, fit[:len(pop)])
			}
			b.ReportMetric(100*cache.Stats().HitRate(), "hit_pct")
		})
	}
}

// BenchmarkFingerprint measures the schedule-fingerprint pass the cache
// runs per genome (decode into scratch + hash of the per-core queues).
func BenchmarkFingerprint(b *testing.B) {
	g := encoding.Random(100, 8, newRand(3))
	var m sim.Mapping
	g.FingerprintInto(8, &m) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FingerprintInto(8, &m)
	}
}

// BenchmarkDecode measures genome decoding (allocating form).
func BenchmarkDecode(b *testing.B) {
	g := encoding.Random(100, 8, newRand(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoding.Decode(g, 8)
	}
}

// BenchmarkDecodeInto measures the scratch-reusing decode the parallel
// engine runs per evaluation.
func BenchmarkDecodeInto(b *testing.B) {
	g := encoding.Random(100, 8, newRand(3))
	var m sim.Mapping
	encoding.DecodeInto(g, 8, &m) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoding.DecodeInto(g, 8, &m)
	}
}
