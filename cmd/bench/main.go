// Command bench measures the evaluation-engine hot paths and emits a
// machine-readable BENCH_eval.json, so the perf trajectory (ns/op,
// allocs/op, parallel speedup) can be tracked across PRs and compared
// against the numbers recorded in DESIGN.md.
//
// Usage:
//
//	bench                  # writes BENCH_eval.json to the working dir
//	bench -o results.json  # custom output path
//	bench -benchtime 2s    # slower, steadier numbers
//	bench -pprof localhost:6060   # net/http/pprof side listener
//
// With -serve, bench instead load-tests the HTTP service: it stands up
// the cmd/serve handler in-process over one shared Solver, fires a
// repeated-workload request mix from concurrent clients, and writes
// BENCH_serve.json with requests/sec and the cross-request hit rate
// (the fraction of evaluations answered by the shared cache from a
// different request's work):
//
//	bench -serve                          # writes BENCH_serve.json
//	bench -serve -requests 48 -clients 8  # heavier load
//	bench -serve -fleet 3                 # 3 shards + rendezvous router
//
// The serve report includes per-request latency percentiles
// (p50/p95/p99/max) measured over keep-alive connections. With -fleet N
// the same mix is driven twice in one run — through a single node, then
// through a router over N in-process shards — and the report adds
// per-shard breakdowns (req/s, searches, problems, cross-request hit
// rate), the router's own counters, the single-node baseline, and the
// ownership check (per-shard problem counts must sum to the mix's
// distinct problem count).
//
// With -serve -chaos, the load test runs with fault injection armed:
// mapper panics at a fixed generation cadence (recovered into 500s while
// the server keeps serving), delayed simulations, and snapshot write
// errors against a periodic background snapshotter. The report then
// carries a "chaos" section counting the recovered errors alongside the
// usual throughput numbers, and verifies the surviving snapshot still
// restores.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/fleet"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/de"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/pso"
	"magma/internal/opt/random"
	"magma/internal/opt/tbpsa"
	"magma/internal/platform"
	"magma/internal/rng"
	"magma/internal/serve"
	"magma/internal/sim"
	"magma/internal/workload"
)

// newRand builds a deterministic RNG stream (layout v2) so the report
// is reproducible.
func newRand(seed int64) *rng.Stream { return rng.New(seed) }

// Measurement is one benchmark row of the JSON artifact.
type Measurement struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the BENCH_eval.json schema.
type Report struct {
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	GroupSize    int           `json:"group_size"`
	Measurements []Measurement `json:"measurements"`
	// SpeedupVsSerial is generation time at workers=1 divided by the
	// best parallel generation time — the headline of the parallel
	// evaluation engine (bounded by GOMAXPROCS).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// CacheHitRate is the schedule-fingerprint cache's hit rate over a
	// full MAGMA search at the paper's budget (fraction of samples that
	// skipped the simulator).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheHitRateByMapper breaks the redundancy of the search stream
	// down per optimizer (the evidence behind DESIGN.md's "Redundancy
	// in the search stream" section).
	CacheHitRateByMapper map[string]float64 `json:"cache_hit_rate_by_mapper"`
	// CachedSpeedup is uncached generation time divided by cached
	// generation time, both at workers=1 (serial benefit of dedup).
	CachedSpeedup float64 `json:"cached_speedup"`
	// EffectiveBudget measures the opt-in distinct-schedule budget mode
	// (Options.EffectiveBudget) on the most redundant optimizer/group
	// combination: how many distinct schedules the same budget explores
	// with duplicates charged (baseline, paper-faithful) versus free.
	EffectiveBudget EffectiveBudgetReport `json:"effective_budget"`
	// PhaseBreakdown splits a full cached MAGMA search's generation (the
	// cmd/serve configuration, bound pruning on as shipped) into its
	// ask / fingerprint / bound / simulate / tell phases at workers=1 and at
	// the -workers flag — the evidence that parallel breeding shrinks
	// the tell phase and that the runner settles elite re-asks before
	// the fingerprint phase. The multi-core CI job fails if this section
	// goes missing.
	PhaseBreakdown PhaseBreakdown `json:"phase_breakdown"`
	// BoundPruneRate is the fraction of missed candidates the runner's
	// analytical lower bound proved unable to reach the elite set and so
	// never decoded or simulated, over a full MAGMA search with the
	// library defaults on the standard mix. Results are bit-identical to
	// the unpruned reference; the CI bench job fails if this field is
	// missing or zero.
	BoundPruneRate float64 `json:"bound_prune_rate"`
	// Bound is the pruned-vs-unpruned comparison behind BoundPruneRate.
	Bound BoundReport `json:"bound"`
}

// BoundReport compares one full MAGMA search with the library defaults
// (bound pruning on) against the unpruned reference — the same search
// through an optimizer wrapper that hides EliteSelector — at the same
// seed and budget. The search is identical either way (same best
// schedule, same convergence curve); only the simulator traffic and the
// generation wall-clock change.
type BoundReport struct {
	Mapper    string `json:"mapper"`
	GroupSize int    `json:"group_size"`
	Budget    int    `json:"budget"`
	// Checked / Pruned count candidates tested against an elite floor
	// and those it proved hopeless.
	Checked uint64 `json:"checked"`
	Pruned  uint64 `json:"pruned"`
	// OffNsPerGen / OnNsPerGen are full-generation wall clocks (ask +
	// fingerprint + bound + simulate + tell) without and with pruning;
	// GenSpeedup is their ratio. The multi-core CI job gates the
	// bound-on time at no worse than bound-off.
	OffNsPerGen float64 `json:"off_ns_per_gen"`
	OnNsPerGen  float64 `json:"on_ns_per_gen"`
	GenSpeedup  float64 `json:"gen_speedup"`
	// BoundNsPerGen is what the pass itself costs per generation — the
	// overhead the pruned simulations have to buy back.
	BoundNsPerGen float64 `json:"bound_ns_per_gen"`
	// PruneRateByGroupSize runs the same bound-on search across group
	// sizes (the evidence behind DESIGN.md's prune-rate table).
	PruneRateByGroupSize map[string]float64 `json:"prune_rate_by_group_size"`
}

// PhaseBreakdown is one per-phase wall-clock comparison across worker
// counts (same seed, same budget: results are bit-identical, only the
// phase timings move).
type PhaseBreakdown struct {
	Mapper    string     `json:"mapper"`
	GroupSize int        `json:"group_size"`
	Budget    int        `json:"budget"`
	Rows      []PhaseRow `json:"rows"`
	// TellSpeedup is serial tell-phase ns/gen divided by the best
	// parallel row's — the parallel-breeding payoff (1.0 on one core).
	TellSpeedup float64 `json:"tell_speedup"`
}

// PhaseRow is one run's per-generation phase timings.
type PhaseRow struct {
	Workers             int     `json:"workers"`
	Generations         int     `json:"generations"`
	AskNsPerGen         float64 `json:"ask_ns_per_gen"`
	FingerprintNsPerGen float64 `json:"fingerprint_ns_per_gen"`
	BoundNsPerGen       float64 `json:"bound_ns_per_gen"`
	SimulateNsPerGen    float64 `json:"simulate_ns_per_gen"`
	TellNsPerGen        float64 `json:"tell_ns_per_gen"`
	// TellShare is the tell phase's fraction of the generation.
	TellShare float64 `json:"tell_share"`
	// FPFull counts the genomes the cache fingerprinted (full decode
	// and hash, its only route).
	FPFull uint64 `json:"fp_full"`
	// Reasks counts the verbatim elite re-asks the runner settled from
	// the previous batch's fitness, never fingerprinted:
	// Asked − FPFull − BoundPruned − Invalid.
	Reasks uint64 `json:"reasks"`
}

// EffectiveBudgetReport compares one cached search with and without
// Options.EffectiveBudget at the same sampling budget.
type EffectiveBudgetReport struct {
	Mapper    string `json:"mapper"`
	GroupSize int    `json:"group_size"`
	Budget    int    `json:"budget"`
	// Baseline* is the paper-faithful mode (every sample charged):
	// Distinct counts simulator-reaching schedules (cache misses), Asked
	// the genomes processed (== Budget).
	BaselineDistinct int `json:"baseline_distinct"`
	BaselineAsked    int `json:"baseline_asked"`
	// Effective* is the same search with duplicates free.
	EffectiveDistinct int `json:"effective_distinct"`
	EffectiveAsked    int `json:"effective_asked"`
	// DistinctStretch is EffectiveDistinct / BaselineDistinct — how many
	// times more of the space the mode explores at equal budget.
	DistinctStretch float64 `json:"distinct_stretch"`
}

// unpruned exposes only m3e.Optimizer, hiding EliteSelector, so
// m3e.Run evaluates every genome: the reference the pruned default is
// checked against.
type unpruned struct{ m3e.Optimizer }

func measure(name string, f func(b *testing.B)) Measurement {
	r := testing.Benchmark(f)
	return Measurement{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

func main() {
	var (
		out       = flag.String("o", "BENCH_eval.json", "output path for the JSON report")
		benchtime = flag.Duration("benchtime", time.Second, "target time per benchmark")
		serveMode = flag.Bool("serve", false, "load-test the HTTP service instead (writes -serveout)")
		serveOut  = flag.String("serveout", "BENCH_serve.json", "output path for the serve load-test report")
		requests  = flag.Int("requests", 24, "serve mode: total requests to fire")
		clients   = flag.Int("clients", 4, "serve mode: concurrent clients")
		chaos     = flag.Bool("chaos", false, "serve mode: arm fault injection (mapper panics, delayed simulations, simulator-kernel stalls, snapshot write errors) and report recovered-error counts")
		fleetN    = flag.Int("fleet", 0, "serve mode: stand up this many shard servers behind the rendezvous router and load-test through it, with a single-node baseline in the same run (0 = single node)")
		workers   = flag.Int("workers", 0, "worker count for the phase-breakdown searches (0 = GOMAXPROCS)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side listener while the run is in flight (e.g. localhost:6060); empty disables")
	)
	testing.Init() // registers test.* flags so benchtime is settable
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	startPprof(*pprofAddr)
	if (*chaos || *fleetN > 0) && !*serveMode {
		log.Fatal("-chaos and -fleet require -serve")
	}
	if *chaos && *fleetN > 0 {
		log.Fatal("-chaos drives a single node; fleet fault tolerance is exercised by the router failover tests and the CI kill-a-shard smoke run")
	}
	if *serveMode {
		var err error
		if *fleetN > 0 {
			err = fleetLoadTest(*serveOut, *requests, *clients, *fleetN)
		} else {
			err = serveLoadTest(*serveOut, *requests, *clients, *chaos)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil { // consumed by testing.Benchmark
		log.Fatal(err)
	}

	const groupSize = 100
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: groupSize, GroupSize: groupSize, Seed: 51})
	if err != nil {
		log.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], platform.S2().WithBW(16), m3e.Throughput)
	if err != nil {
		log.Fatal(err)
	}
	g := encoding.Random(groupSize, prob.NumAccels(), newRand(1))

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GroupSize:  groupSize,
	}

	ev := prob.NewEvaluator()
	if _, err := ev.Evaluate(g); err != nil {
		log.Fatal(err)
	}
	rep.Measurements = append(rep.Measurements, measure("Evaluate/steady", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(g); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Measurements = append(rep.Measurements, measure("Evaluate/fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Evaluate(g); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Measurements = append(rep.Measurements, measure("DecodeInto", func(b *testing.B) {
		var m sim.Mapping
		encoding.DecodeInto(g, prob.NumAccels(), &m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encoding.DecodeInto(g, prob.NumAccels(), &m)
		}
	}))

	var serial, bestParallel, serialCached float64
	for _, workers := range []int{1, 2, 4, 8} {
		m := measure(fmt.Sprintf("MAGMAGeneration/workers=%d", workers), func(b *testing.B) {
			opt := optmagma.New(optmagma.Config{})
			if err := opt.Init(prob, newRand(2)); err != nil {
				b.Fatal(err)
			}
			pool := m3e.NewPool(prob, workers)
			opt.SetBreeder(pool) // Tell breeds on the same worker set
			fit := make([]float64, groupSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := opt.Ask()
				pool.Evaluate(pop, fit[:len(pop)])
				opt.Tell(pop, fit[:len(pop)])
			}
		})
		rep.Measurements = append(rep.Measurements, m)
		if workers == 1 {
			serial = m.NsPerOp
		} else if bestParallel == 0 || m.NsPerOp < bestParallel {
			bestParallel = m.NsPerOp
		}
	}
	if bestParallel > 0 {
		rep.SpeedupVsSerial = serial / bestParallel
	}

	// Cached generation timings: the same loop through the schedule-
	// fingerprint cache (results are bit-identical; only wall-clock and
	// simulator traffic change).
	for _, workers := range []int{1, 2, 4, 8} {
		m := measure(fmt.Sprintf("MAGMAGenerationCached/workers=%d", workers), func(b *testing.B) {
			opt := optmagma.New(optmagma.Config{})
			if err := opt.Init(prob, newRand(2)); err != nil {
				b.Fatal(err)
			}
			pool := m3e.NewPool(prob, workers)
			opt.SetBreeder(pool)
			cache := m3e.NewFitnessCache(prob, 0)
			fit := make([]float64, groupSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := opt.Ask()
				cache.Evaluate(pool, pop, fit[:len(pop)])
				opt.Tell(pop, fit[:len(pop)])
			}
		})
		rep.Measurements = append(rep.Measurements, m)
		if workers == 1 {
			serialCached = m.NsPerOp
		}
	}
	if serialCached > 0 {
		rep.CachedSpeedup = serial / serialCached
	}

	// The cache's one fingerprint route: a full decode and hash.
	fpGenome := encoding.Random(groupSize, prob.NumAccels(), newRand(4))
	nAccels := prob.NumAccels()
	rep.Measurements = append(rep.Measurements, measure("FingerprintInto", func(b *testing.B) {
		var m sim.Mapping
		for i := 0; i < b.N; i++ {
			fpGenome.FingerprintInto(nAccels, &m)
		}
	}))

	// Phase breakdown: full cached MAGMA searches, bit-identical across
	// worker counts, timed per phase by the runner itself.
	rep.PhaseBreakdown = PhaseBreakdown{Mapper: "MAGMA", GroupSize: groupSize, Budget: m3e.DefaultBudget}
	resolved := *workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	phaseWorkers := []int{1}
	if resolved != 1 {
		phaseWorkers = append(phaseWorkers, resolved)
	}
	var serialTell, bestTell float64
	for _, w := range phaseWorkers {
		res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{
			Budget: m3e.DefaultBudget, Workers: w, Cache: true,
		}, 6)
		if err != nil {
			log.Fatal(err)
		}
		ph, gens := res.Phases, float64(res.Phases.Generations)
		total := float64(ph.AskNs + ph.FingerprintNs + ph.BoundNs + ph.SimulateNs + ph.TellNs)
		row := PhaseRow{
			Workers:             w,
			Generations:         ph.Generations,
			AskNsPerGen:         float64(ph.AskNs) / gens,
			FingerprintNsPerGen: float64(ph.FingerprintNs) / gens,
			BoundNsPerGen:       float64(ph.BoundNs) / gens,
			SimulateNsPerGen:    float64(ph.SimulateNs) / gens,
			TellNsPerGen:        float64(ph.TellNs) / gens,
			FPFull:              res.Cache.FullFP,
			Reasks:              uint64(res.Asked) - res.Cache.FullFP - res.Cache.BoundPruned - res.Cache.Invalid,
		}
		if total > 0 {
			row.TellShare = float64(ph.TellNs) / total
		}
		rep.PhaseBreakdown.Rows = append(rep.PhaseBreakdown.Rows, row)
		if w == 1 {
			serialTell = row.TellNsPerGen
		} else if bestTell == 0 || row.TellNsPerGen < bestTell {
			bestTell = row.TellNsPerGen
		}
	}
	if bestTell > 0 {
		rep.PhaseBreakdown.TellSpeedup = serialTell / bestTell
	} else {
		rep.PhaseBreakdown.TellSpeedup = 1
	}

	// Measured duplicate rate of each optimizer's search stream: one
	// full cached run at the paper's budget per mapper.
	rep.CacheHitRateByMapper = map[string]float64{}
	for _, m := range []struct {
		name string
		opt  m3e.Optimizer
	}{
		{"MAGMA", optmagma.New(optmagma.Config{})},
		{"stdGA", ga.New(ga.Config{})},
		{"DE", de.New(de.Config{})},
		{"CMA", cmaes.New(cmaes.Config{})},
		{"TBPSA", tbpsa.New(tbpsa.Config{})},
		{"PSO", pso.New(pso.Config{})},
		{"Random", random.New(0)},
	} {
		res, err := m3e.Run(prob, m.opt, m3e.Options{Budget: m3e.DefaultBudget, Cache: true}, 3)
		if err != nil {
			log.Fatal(err)
		}
		rep.CacheHitRateByMapper[m.name] = res.Cache.HitRate()
	}
	rep.CacheHitRate = rep.CacheHitRateByMapper["MAGMA"]

	// Effective-budget mode, measured where it pays most: MAGMA at group
	// 16 re-asks elites and near-converged offspring (~70% duplicates at
	// full budget) but keeps mutating, so freeing the duplicates
	// multiplies the distinct schedules explored per budget (CMA-ES, by
	// contrast, collapses to pure duplicates once converged and just
	// runs into the stretch cap).
	ebGroup := 16
	webq, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: ebGroup, GroupSize: ebGroup, Seed: 52})
	if err != nil {
		log.Fatal(err)
	}
	ebProb, err := m3e.NewProblem(webq.Groups[0], platform.S2().WithBW(16), m3e.Throughput)
	if err != nil {
		log.Fatal(err)
	}
	ebBudget := m3e.DefaultBudget
	base, err := m3e.Run(ebProb, optmagma.New(optmagma.Config{}), m3e.Options{Budget: ebBudget, Cache: true}, 4)
	if err != nil {
		log.Fatal(err)
	}
	eff, err := m3e.Run(ebProb, optmagma.New(optmagma.Config{}), m3e.Options{Budget: ebBudget, Cache: true, EffectiveBudget: true}, 4)
	if err != nil {
		log.Fatal(err)
	}
	rep.EffectiveBudget = EffectiveBudgetReport{
		Mapper:            "MAGMA",
		GroupSize:         ebGroup,
		Budget:            ebBudget,
		BaselineDistinct:  int(base.Cache.Misses),
		BaselineAsked:     base.Asked,
		EffectiveDistinct: int(eff.Cache.Misses),
		EffectiveAsked:    eff.Asked,
	}
	if base.Cache.Misses > 0 {
		rep.EffectiveBudget.DistinctStretch = float64(eff.Cache.Misses) / float64(base.Cache.Misses)
	}

	// Analytical pruning: MAGMA with the library defaults on the standard
	// mix against the unpruned reference. The run is bit-identical either
	// way — bench verifies that here — so the comparison isolates the
	// pruning pass's effect on simulator traffic and generation time.
	genNs := func(res m3e.Result) float64 {
		ph := res.Phases
		if ph.Generations == 0 {
			return 0
		}
		return float64(ph.AskNs+ph.FingerprintNs+ph.BoundNs+ph.SimulateNs+ph.TellNs) / float64(ph.Generations)
	}
	// Serial on both sides: the wrapper also hides the breeding hook, so
	// only workers=1 compares generation times fairly.
	boundOff, err := m3e.Run(prob, unpruned{optmagma.New(optmagma.Config{})}, m3e.Options{
		Budget: m3e.DefaultBudget, Workers: 1,
	}, 6)
	if err != nil {
		log.Fatal(err)
	}
	boundOn, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{
		Budget: m3e.DefaultBudget, Workers: 1,
	}, 6)
	if err != nil {
		log.Fatal(err)
	}
	if boundOn.BestFitness != boundOff.BestFitness || !reflect.DeepEqual(boundOn.Curve, boundOff.Curve) {
		log.Fatal("bound pruning changed the search: best/curve diverged from the unpruned run")
	}
	rep.BoundPruneRate = boundOn.Cache.BoundPruneRate()
	rep.Bound = BoundReport{
		Mapper:               "MAGMA",
		GroupSize:            groupSize,
		Budget:               m3e.DefaultBudget,
		Checked:              boundOn.Cache.BoundChecked,
		Pruned:               boundOn.Cache.BoundPruned,
		OffNsPerGen:          genNs(boundOff),
		OnNsPerGen:           genNs(boundOn),
		BoundNsPerGen:        float64(boundOn.Phases.BoundNs) / float64(boundOn.Phases.Generations),
		PruneRateByGroupSize: map[string]float64{},
	}
	if rep.Bound.OnNsPerGen > 0 {
		rep.Bound.GenSpeedup = rep.Bound.OffNsPerGen / rep.Bound.OnNsPerGen
	}
	for _, gs := range []int{16, 48, 100} {
		if gs == groupSize {
			rep.Bound.PruneRateByGroupSize[fmt.Sprint(gs)] = rep.BoundPruneRate
			continue
		}
		wgs, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: gs, GroupSize: gs, Seed: 51})
		if err != nil {
			log.Fatal(err)
		}
		gsProb, err := m3e.NewProblem(wgs.Groups[0], platform.S2().WithBW(16), m3e.Throughput)
		if err != nil {
			log.Fatal(err)
		}
		res, err := m3e.Run(gsProb, optmagma.New(optmagma.Config{}), m3e.Options{
			Budget: m3e.DefaultBudget,
		}, 6)
		if err != nil {
			log.Fatal(err)
		}
		rep.Bound.PruneRateByGroupSize[fmt.Sprint(gs)] = res.Cache.BoundPruneRate()
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for _, m := range rep.Measurements {
		fmt.Printf("%-34s %12.0f ns/op %8d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
	}
	fmt.Printf("parallel speedup vs serial: %.2fx (GOMAXPROCS=%d)\n", rep.SpeedupVsSerial, rep.GOMAXPROCS)
	fmt.Printf("cached speedup vs uncached (workers=1): %.2fx\n", rep.CachedSpeedup)
	for _, name := range []string{"MAGMA", "stdGA", "DE", "CMA", "TBPSA", "PSO", "Random"} {
		fmt.Printf("cache hit rate %-8s %5.1f%%\n", name+":", 100*rep.CacheHitRateByMapper[name])
	}
	for _, row := range rep.PhaseBreakdown.Rows {
		fmt.Printf("phases workers=%-2d (per gen): ask %8.0f ns | fingerprint %8.0f ns (%d re-asks settled) | bound %8.0f ns | simulate %8.0f ns | tell %8.0f ns (%.1f%% of gen)\n",
			row.Workers, row.AskNsPerGen, row.FingerprintNsPerGen, row.Reasks,
			row.BoundNsPerGen, row.SimulateNsPerGen, row.TellNsPerGen, 100*row.TellShare)
	}
	fmt.Printf("tell-phase speedup vs serial: %.2fx\n", rep.PhaseBreakdown.TellSpeedup)
	eb := rep.EffectiveBudget
	fmt.Printf("effective budget (%s, group %d, budget %d): %d -> %d distinct schedules (%.2fx, %d asked)\n",
		eb.Mapper, eb.GroupSize, eb.Budget, eb.BaselineDistinct, eb.EffectiveDistinct, eb.DistinctStretch, eb.EffectiveAsked)
	bd := rep.Bound
	fmt.Printf("bound pruning (%s, group %d, budget %d): %.1f%% of missed candidates pruned (%d of %d checked)\n",
		bd.Mapper, bd.GroupSize, bd.Budget, 100*rep.BoundPruneRate, bd.Pruned, bd.Checked)
	fmt.Printf("bound generation time: %.0f ns off -> %.0f ns on (%.2fx; bound pass %.0f ns/gen)\n",
		bd.OffNsPerGen, bd.OnNsPerGen, bd.GenSpeedup, bd.BoundNsPerGen)
	for _, gs := range []string{"16", "48", "100"} {
		fmt.Printf("bound prune rate group %-4s %5.1f%%\n", gs+":", 100*bd.PruneRateByGroupSize[gs])
	}
	fmt.Printf("wrote %s\n", *out)
}

// startPprof exposes net/http/pprof on a side listener for the
// duration of the run, so a slow benchmark or load test can be
// profiled live instead of re-run under guesswork. Off the service
// address on purpose: the -serve load test must only measure service
// traffic.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("pprof listening on http://%s/debug/pprof/", addr)
		// DefaultServeMux carries the net/http/pprof registrations.
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("pprof listener: %v", err)
		}
	}()
}

// ServeReport is the BENCH_serve.json schema: one shared-Solver HTTP
// load test (see -serve).
type ServeReport struct {
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Requests       int     `json:"requests"`
	Clients        int     `json:"clients"`
	DistinctWLs    int     `json:"distinct_workloads"`
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// CrossRequestHitRate is the fraction of all decodable evaluations
	// the shared engine answered from an entry a *different* search
	// inserted — the reuse only a long-lived Solver can provide. The CI
	// gate requires this field to be present and the repeated-workload
	// mix below to make it nonzero.
	CrossRequestHitRate float64 `json:"cross_request_hit_rate"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	Searches            uint64  `json:"searches"`
	TablesBuilt         uint64  `json:"tables_built"`
	TablesReused        uint64  `json:"tables_reused"`
	PoolsBuilt          uint64  `json:"pools_built"`
	PoolsReused         uint64  `json:"pools_reused"`
	// Coalesced counts requests answered by an identical in-flight
	// request's search (singleflight) instead of a search of their own.
	Coalesced uint64 `json:"coalesced"`
	// Latency summarizes per-request wall time as seen by the load
	// generator (keep-alive connections, so steady-state numbers don't
	// pay a dial per request).
	Latency *LatencyJSON `json:"latency_ms,omitempty"`
	// Chaos is present only under -chaos: the recovered-error counts.
	Chaos *ChaosReport `json:"chaos,omitempty"`
	// Fleet is present only under -fleet: the sharded run's breakdown
	// and its same-run single-node baseline. With -fleet the top-level
	// throughput/hit-rate/latency figures describe the *fleet* run.
	Fleet *FleetReport `json:"fleet,omitempty"`
}

// LatencyJSON is a per-request latency summary in milliseconds
// (nearest-rank percentiles over every completed request).
type LatencyJSON struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// FleetReport is the -fleet section: per-shard breakdowns, the router's
// own counters, the disjoint-ownership check, and the single-node
// baseline measured in the same run.
type FleetReport struct {
	Shards int `json:"shards"`
	// DistinctProblems is the number of distinct TableIdentities in the
	// mix (computed locally by the driver); ProblemsSum is what the
	// shards report holding. Equal exactly when every identity is served
	// by one shard — the fleet's ownership invariant.
	DistinctProblems  int               `json:"distinct_problems"`
	ProblemsSum       int               `json:"problems_sum"`
	OwnershipDisjoint bool              `json:"ownership_disjoint"`
	Router            fleet.RouterStats `json:"router"`
	PerShard          []ShardBench      `json:"per_shard"`
	Baseline          BaselineBench     `json:"single_node_baseline"`
}

// ShardBench is one shard's slice of the fleet run. RequestsPerSec
// counts the forwarded sub-requests this shard absorbed (fan-out splits
// a multi-group request into one sub-request per group).
type ShardBench struct {
	Name                string  `json:"name"`
	RequestsPerSec      float64 `json:"requests_per_sec"`
	Searches            uint64  `json:"searches"`
	Problems            int     `json:"problems"`
	CrossRequestHitRate float64 `json:"cross_request_hit_rate"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
}

// BaselineBench is the single-node run the fleet is compared against:
// same mix, same request count, same process.
type BaselineBench struct {
	RequestsPerSec      float64      `json:"requests_per_sec"`
	CrossRequestHitRate float64      `json:"cross_request_hit_rate"`
	CacheHitRate        float64      `json:"cache_hit_rate"`
	Latency             *LatencyJSON `json:"latency_ms,omitempty"`
}

// ChaosReport counts what the fault-injection run survived: every
// number here is an error the server absorbed while continuing to
// serve (the throughput figures above are measured through the chaos).
type ChaosReport struct {
	// MapperPanics is the engine's count of recovered mapper panics;
	// Failed500s the requests that saw them as HTTP 500s (coalesced
	// followers of a panicked flight share one panic, so 500s can exceed
	// panics); Succeeded the requests that still completed 200.
	MapperPanics uint64 `json:"mapper_panics"`
	Failed500s   int64  `json:"failed_500s"`
	Succeeded    int64  `json:"succeeded"`
	// DelayedSimulations counts evaluation batches slowed by the armed
	// delay hook.
	DelayedSimulations uint64 `json:"delayed_simulations"`
	// KernelRuns counts passes through the simulator kernel's
	// sim.kernel fault point while armed; KernelStalls the ones its
	// delay hook slowed — proof the point is live on the serving path.
	KernelRuns   uint64 `json:"kernel_runs"`
	KernelStalls uint64 `json:"kernel_stalls"`
	// Snapshot churn under injected write errors: attempts, injected
	// failures, durable successes — and whether the surviving file still
	// restores into a fresh Solver (torn or half-written files must
	// never be left behind).
	SnapshotAttempts  int    `json:"snapshot_attempts"`
	SnapshotFailures  int    `json:"snapshot_failures"`
	SnapshotsTaken    uint64 `json:"snapshots_taken"`
	SnapshotRestoreOK bool   `json:"snapshot_restore_ok"`
	ProblemsRestored  uint64 `json:"problems_restored"`
}

// serveLoadTest stands up the HTTP handler in-process over one shared
// Solver and fires a repeated-workload request mix from concurrent
// clients — the serving pattern the engine exists for: most requests
// repeat a problem the solver has already profiled and partly solved.
// With chaos set, the same mix runs with fault injection armed and the
// report counts what the server recovered from.
func serveLoadTest(out string, requests, clients int, chaos bool) error {
	solver := magma.NewSolver(magma.SolverOptions{})
	ts := httptest.NewServer(serve.New(solver).Handler())
	defer ts.Close()

	var (
		failed500s   atomic.Int64
		succeeded    atomic.Int64
		snapAttempts int
		snapFailures int
		snapPath     string
		stopSnaps    = func() {}
	)
	if chaos {
		fault.Reset()
		defer fault.Reset()
		// One mapper panic roughly every 97 generations across the whole
		// request stream: the recover boundary turns each into a single
		// failed request (HTTP 500) while the server keeps serving.
		fault.Enable(fault.M3EAsk, fault.Every(97, func() error {
			panic("chaos: injected mapper panic")
		}))
		// Periodic slow evaluations (a stalled batch, not an error).
		fault.Enable(fault.M3ESimulate, fault.Every(512, func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}))
		// The simulator kernel's entry point, stalled at a lower
		// cadence (an error here fails the whole search rather than one
		// candidate, so the chaos mix exercises the point as a delay,
		// like M3ESimulate, and counts the passes).
		fault.Enable(fault.SimKernel, fault.Every(512, func() error {
			time.Sleep(time.Millisecond)
			return nil
		}))
		// Every third snapshot write fails before touching the data; the
		// previous durable snapshot must survive each failure.
		fault.Enable(fault.PersistWrite, fault.Every(3, func() error {
			return errors.New("chaos: injected snapshot write error")
		}))
		dir, err := os.MkdirTemp("", "bench-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		snapPath = filepath.Join(dir, "solver.snap")
		quit := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					snapAttempts++
					if err := solver.SnapshotFile(snapPath); err != nil {
						snapFailures++
					}
				}
			}
		}()
		stopSnaps = func() {
			close(quit)
			<-done
		}
	}

	specs := serveMixSpecs()
	res, mixErr := fireMix(newBenchClient(), ts.URL, specs, requests, clients, chaos)
	failed500s.Store(res.failed500s)
	succeeded.Store(res.succeeded)
	elapsed := res.seconds
	stopSnaps()
	if chaos {
		// Short runs can end before the ticker ever fires; take a final
		// snapshot so the restore check always has a durable file,
		// retrying past the injected write errors (every third fails).
		for i := 0; i < 4; i++ {
			snapAttempts++
			if err := solver.SnapshotFile(snapPath); err != nil {
				snapFailures++
				continue
			}
			break
		}
	}
	if mixErr != nil {
		return mixErr
	}

	// The serve-level coalescing counter lives behind /stats.
	var engStats serve.EngineJSON
	if resp, err := http.Get(ts.URL + "/stats"); err == nil {
		err = json.NewDecoder(resp.Body).Decode(&engStats)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding /stats: %w", err)
		}
	} else {
		return err
	}

	stats := solver.Stats()
	rep := ServeReport{
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Requests:            requests,
		Clients:             clients,
		DistinctWLs:         len(specs),
		Seconds:             elapsed,
		RequestsPerSec:      float64(requests) / elapsed,
		CrossRequestHitRate: stats.Cache.CrossHitRate(),
		CacheHitRate:        stats.Cache.HitRate(),
		Searches:            stats.Searches,
		TablesBuilt:         stats.TablesBuilt,
		TablesReused:        stats.TablesReused,
		PoolsBuilt:          stats.PoolsBuilt,
		PoolsReused:         stats.PoolsReused,
		Coalesced:           engStats.Coalesced,
		Latency:             latencyOf(res.latencies),
	}
	if chaos {
		ch := &ChaosReport{
			MapperPanics:       stats.MapperPanics,
			Failed500s:         failed500s.Load(),
			Succeeded:          succeeded.Load(),
			DelayedSimulations: fault.Hits(fault.M3ESimulate) / 512,
			KernelRuns:         fault.Hits(fault.SimKernel),
			KernelStalls:       fault.Hits(fault.SimKernel) / 512,
			SnapshotAttempts:   snapAttempts,
			SnapshotFailures:   snapFailures,
			SnapshotsTaken:     stats.SnapshotsTaken,
		}
		// The surviving snapshot (if any write ever succeeded) must still
		// restore cleanly — write-error injection may abort snapshots but
		// must never corrupt the durable file.
		if ch.SnapshotsTaken > 0 {
			fresh := magma.NewSolver(magma.SolverOptions{})
			if err := fresh.RestoreFile(snapPath); err == nil {
				ch.SnapshotRestoreOK = true
				ch.ProblemsRestored = fresh.Stats().ProblemsRestored
			}
		}
		rep.Chaos = ch
	}
	return writeServeReport(out, rep)
}

// serveMixSpecs is the repeated-workload request mix every serve-mode
// run fires: three distinct workloads cycling through the stream, so
// every request beyond the first three re-asks a problem the serving
// engine already holds and repeats hit the cross-run cache.
func serveMixSpecs() []string {
	return []string{
		`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":11},"platform":"S2","options":{"budget_per_group":300,"seed":1}}`,
		`{"generate":{"task":"Vision","num_jobs":32,"group_size":16,"seed":12},"platform":"S2","options":{"budget_per_group":300,"seed":2}}`,
		`{"generate":{"task":"Lang","num_jobs":32,"group_size":16,"seed":13},"platform":"S1","options":{"budget_per_group":300,"seed":3}}`,
	}
}

// newBenchClient builds the shared keep-alive load-generation client:
// one transport with a warm per-host idle pool, so steady-state
// requests reuse connections instead of paying a dial each.
func newBenchClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: tr}
}

// mixResult is one load-generation run: wall time, per-request
// latencies (milliseconds, indexed by request number), and the
// 200/500 split.
type mixResult struct {
	seconds    float64
	latencies  []float64
	succeeded  int64
	failed500s int64
}

// fireMix drives the repeated-workload mix at url from `clients`
// concurrent clients over one shared keep-alive HTTP client. With
// allow500, injected-fault 500s are counted instead of fatal (the
// -chaos contract: a recovered panic fails one request, not the run).
func fireMix(client *http.Client, url string, specs []string, requests, clients int, allow500 bool) (mixResult, error) {
	var (
		wg         sync.WaitGroup
		errs       = make([]error, clients)
		next       atomic.Int64
		succeeded  atomic.Int64
		failed500s atomic.Int64
	)
	latencies := make([]float64, requests)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url+"/optimize", "application/json",
					strings.NewReader(specs[i%len(specs)]))
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				switch {
				case resp.StatusCode == http.StatusOK:
					succeeded.Add(1)
				case allow500 && resp.StatusCode == http.StatusInternalServerError:
					// An injected mapper panic failed this request; the
					// server recovered and the next request proceeds.
					failed500s.Add(1)
				default:
					errs[c] = fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res := mixResult{
		seconds:    time.Since(start).Seconds(),
		latencies:  latencies,
		succeeded:  succeeded.Load(),
		failed500s: failed500s.Load(),
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// latencyOf summarizes per-request latencies into nearest-rank
// percentiles over the sorted sample.
func latencyOf(ms []float64) *LatencyJSON {
	if len(ms) == 0 {
		return nil
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return &LatencyJSON{P50: rank(0.50), P95: rank(0.95), P99: rank(0.99), Max: s[len(s)-1]}
}

// fleetLoadTest stands up nShards shard servers plus the rendezvous
// router in-process and drives the same repeated mix twice — once
// against a single-node server (the baseline) and once through the
// router, same request count, same process — so the report's
// fleet-vs-single comparison is apples to apples. It also recomputes
// every group's owner locally and enforces the fleet's ownership
// invariant: per-shard problem counts must sum to the distinct problem
// count (every TableIdentity served by exactly one shard).
func fleetLoadTest(out string, requests, clients, nShards int) error {
	specs := serveMixSpecs()
	client := newBenchClient()

	// Baseline: one node takes the whole mix.
	baseSolver := magma.NewSolver(magma.SolverOptions{})
	baseTS := httptest.NewServer(serve.New(baseSolver).Handler())
	baseRes, err := fireMix(client, baseTS.URL, specs, requests, clients, false)
	baseTS.Close()
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	baseStats := baseSolver.Stats()

	// The fleet: nShards fresh shard servers and the router in front.
	shards := make([]fleet.Shard, nShards)
	for i := range shards {
		ts := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
		defer ts.Close()
		shards[i] = fleet.Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	router, err := fleet.NewRouter(shards, fleet.Config{})
	if err != nil {
		return err
	}
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	fleetRes, err := fireMix(client, rts.URL, specs, requests, clients, false)
	if err != nil {
		return fmt.Errorf("fleet run: %w", err)
	}

	// Recompute the routing locally: the distinct problems in the mix,
	// each group's owner, and how many forwarded sub-requests each shard
	// absorbed (fan-out splits a request into one sub-request per group).
	distinct := map[encoding.TableKey]int{}
	subsPerShard := make([]int, nShards)
	for si, spec := range specs {
		var req serve.OptimizeRequest
		if err := json.Unmarshal([]byte(spec), &req); err != nil {
			return err
		}
		wl, pf, err := serve.ResolveTarget(&req)
		if err != nil {
			return err
		}
		owners := make([]int, len(wl.Groups))
		split := false
		for gi, g := range wl.Groups {
			key := encoding.TableIdentity(g, pf)
			owners[gi] = fleet.Owner(shards, key)
			distinct[key] = owners[gi]
			if owners[gi] != owners[0] {
				split = true
			}
		}
		fired := requests / len(specs)
		if si < requests%len(specs) {
			fired++
		}
		if split {
			for _, o := range owners {
				subsPerShard[o] += fired
			}
		} else {
			subsPerShard[owners[0]] += fired
		}
	}

	var stats fleet.StatsResponse
	resp, err := client.Get(rts.URL + "/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding fleet /stats: %w", err)
	}

	fr := &FleetReport{
		Shards:           nShards,
		DistinctProblems: len(distinct),
		Router:           stats.Router,
		Baseline: BaselineBench{
			RequestsPerSec:      float64(requests) / baseRes.seconds,
			CrossRequestHitRate: baseStats.Cache.CrossHitRate(),
			CacheHitRate:        baseStats.Cache.HitRate(),
			Latency:             latencyOf(baseRes.latencies),
		},
	}
	for i, st := range stats.PerShard {
		sb := ShardBench{Name: st.Name, RequestsPerSec: float64(subsPerShard[i]) / fleetRes.seconds}
		if st.Stats != nil {
			sb.Searches = st.Stats.Searches
			sb.Problems = st.Stats.Problems
			sb.CrossRequestHitRate = st.Stats.CrossRequestHitRate
			sb.CacheHitRate = st.Stats.Cache.HitRate
			fr.ProblemsSum += st.Stats.Problems
		}
		fr.PerShard = append(fr.PerShard, sb)
	}
	fr.OwnershipDisjoint = fr.ProblemsSum == fr.DistinctProblems

	agg := stats.Aggregate
	rep := ServeReport{
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Requests:            requests,
		Clients:             clients,
		DistinctWLs:         len(specs),
		Seconds:             fleetRes.seconds,
		RequestsPerSec:      float64(requests) / fleetRes.seconds,
		CrossRequestHitRate: agg.CrossRequestHitRate,
		CacheHitRate:        agg.Cache.HitRate,
		Searches:            agg.Searches,
		TablesBuilt:         agg.TablesBuilt,
		TablesReused:        agg.TablesReused,
		PoolsBuilt:          agg.PoolsBuilt,
		PoolsReused:         agg.PoolsReused,
		Coalesced:           agg.Coalesced,
		Latency:             latencyOf(fleetRes.latencies),
		Fleet:               fr,
	}
	if err := writeServeReport(out, rep); err != nil {
		return err
	}
	if !fr.OwnershipDisjoint {
		return fmt.Errorf("ownership not disjoint: per-shard problems sum to %d, mix has %d distinct", fr.ProblemsSum, fr.DistinctProblems)
	}
	return nil
}

// writeServeReport writes the JSON artifact and prints the
// human-readable summary shared by every serve-mode run.
func writeServeReport(out string, rep ServeReport) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%d requests, %d clients, %d distinct workloads\n", rep.Requests, rep.Clients, rep.DistinctWLs)
	fmt.Printf("throughput:             %.2f req/s (%.2fs wall)\n", rep.RequestsPerSec, rep.Seconds)
	fmt.Printf("cross-request hit rate: %.1f%% (cache hit rate %.1f%%)\n",
		100*rep.CrossRequestHitRate, 100*rep.CacheHitRate)
	fmt.Printf("tables built/reused:    %d/%d; pools built/reused: %d/%d; coalesced: %d\n",
		rep.TablesBuilt, rep.TablesReused, rep.PoolsBuilt, rep.PoolsReused, rep.Coalesced)
	if l := rep.Latency; l != nil {
		fmt.Printf("latency:                p50 %.1fms, p95 %.1fms, p99 %.1fms, max %.1fms\n",
			l.P50, l.P95, l.P99, l.Max)
	}
	if fr := rep.Fleet; fr != nil {
		fmt.Printf("fleet: %d shards behind one router (forwarded %d, fan-outs %d, retries %d, shard errors %d)\n",
			fr.Shards, fr.Router.Forwarded, fr.Router.FanOuts, fr.Router.Retries, fr.Router.ShardErrors)
		for _, sb := range fr.PerShard {
			fmt.Printf("  %-8s %6.2f req/s, %3d searches, %2d problems, cross-request hit rate %.1f%%\n",
				sb.Name+":", sb.RequestsPerSec, sb.Searches, sb.Problems, 100*sb.CrossRequestHitRate)
		}
		b := fr.Baseline
		fmt.Printf("  single-node baseline: %.2f req/s, cross-request hit rate %.1f%%", b.RequestsPerSec, 100*b.CrossRequestHitRate)
		if b.Latency != nil {
			fmt.Printf(", p95 %.1fms", b.Latency.P95)
		}
		fmt.Println()
		fmt.Printf("  ownership: %d distinct problems, per-shard sum %d, disjoint: %v\n",
			fr.DistinctProblems, fr.ProblemsSum, fr.OwnershipDisjoint)
	}
	if ch := rep.Chaos; ch != nil {
		fmt.Printf("chaos: %d mapper panics recovered (%d requests 500, %d ok), %d delayed batches\n",
			ch.MapperPanics, ch.Failed500s, ch.Succeeded, ch.DelayedSimulations)
		fmt.Printf("chaos: sim.kernel fault point passed %d times (%d stalled)\n",
			ch.KernelRuns, ch.KernelStalls)
		fmt.Printf("chaos: snapshots %d/%d succeeded (%d injected write errors), restore ok: %v (%d problems)\n",
			int(ch.SnapshotsTaken), ch.SnapshotAttempts, ch.SnapshotFailures, ch.SnapshotRestoreOK, ch.ProblemsRestored)
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
