// Package magma reproduces "MAGMA: An Optimization Framework for Mapping
// Multiple DNNs on Multiple Accelerator Cores" (Kao & Krishna, HPCA 2022)
// as a self-contained Go library.
//
// The package is the public facade over the full system:
//
//   - M3E, the optimization framework (§IV): job analyzer + analytical
//     accelerator cost model, mapping encoding, bandwidth allocator, and
//     throughput/latency/energy/EDP objectives;
//   - MAGMA, the genetic mapping algorithm with domain-specific
//     operators and warm start (§V);
//   - every baseline of Table IV: Herald-like and AI-MT-like manual
//     mappers, stdGA, DE, CMA-ES, TBPSA, PSO, random search, and the
//     A2C / PPO2 reinforcement-learning mappers;
//   - the Table III multi-core accelerator settings (S1–S6) and the
//     benchmark workload generator (Vision / Lang / Recom / Mix).
//
// Quick start:
//
//	pf := magma.PlatformS2().WithBW(16)
//	wl, _ := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: 100, Seed: 1})
//	res, _ := magma.Optimize(wl.Groups[0], pf, magma.Options{Mapper: "MAGMA", Budget: 10000, Seed: 1})
//	fmt.Printf("%.1f GFLOP/s\n", res.ThroughputGFLOPs)
//
// The sub-packages under internal/ hold the implementation; everything a
// downstream user needs is re-exported here.
package magma

import (
	"context"
	"io"
	"sync"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/sim"
	"magma/internal/workload"
)

// Task identifies a benchmark task class (§VI-A2).
type Task = models.Task

// Task classes.
const (
	Vision         = models.Vision
	Language       = models.Language
	Recommendation = models.Recommendation
	Mix            = models.Mix
)

// Platform is a multi-core accelerator (sub-accelerators sharing one
// system bandwidth).
type Platform = platform.Platform

// Table III settings (each at its paper-default system bandwidth; use
// WithBW to sweep).
func PlatformS1() Platform { return platform.S1() }
func PlatformS2() Platform { return platform.S2() }
func PlatformS3() Platform { return platform.S3() }
func PlatformS4() Platform { return platform.S4() }
func PlatformS5() Platform { return platform.S5() }
func PlatformS6() Platform { return platform.S6() }

// PlatformBySetting resolves "S1".."S6".
func PlatformBySetting(id string) (Platform, error) { return platform.BySetting(id) }

// Workload types.
type (
	// Workload is a generated stream of dependency-free job groups.
	Workload = workload.Workload
	// Group is one dependency-free set of jobs scheduled together.
	Group = workload.Group
	// Job is a mini-batch of one DNN layer.
	Job = workload.Job
	// WorkloadConfig parameterizes the benchmark generator.
	WorkloadConfig = workload.Config
)

// GenerateWorkload builds a benchmark workload (§VI-A2).
func GenerateWorkload(cfg WorkloadConfig) (Workload, error) { return workload.Generate(cfg) }

// ReadWorkloadJSON parses a workload written by Workload.WriteJSON.
func ReadWorkloadJSON(r io.Reader) (Workload, error) { return workload.ReadJSON(r) }

// ModelNames lists the DNN model zoo.
func ModelNames() []string { return models.Names() }

// Objective selects what Optimize maximizes.
type Objective = m3e.Objective

// Objectives (§IV-C).
const (
	Throughput = m3e.Throughput
	Latency    = m3e.Latency
	Energy     = m3e.Energy
	EDP        = m3e.EDP
)

// Genome is the encoded form of a schedule (§IV-A): the sub-accelerator
// selection and job-priority sections. Re-exported so downstream Mapper
// implementations can name the type they Ask and Tell.
type Genome = encoding.Genome

// SearchProblem is the problem instance handed to a Mapper's Init: the
// job group, platform, objective and prebuilt analysis table. Re-exported
// for downstream Mapper implementations.
type SearchProblem = m3e.Problem

// Progress is the per-generation snapshot handed to Options.Progress:
// samples consumed, genomes asked, best fitness so far and the
// evaluation counters.
type Progress = m3e.Progress

// Options configures one mapping search.
type Options struct {
	// Mapper selects the algorithm by its Table IV name: "MAGMA",
	// "stdGA", "DE", "CMA", "TBPSA", "PSO", "Random", "RL A2C",
	// "RL PPO2", "Herald-like", or "AI-MT-like" — or any algorithm added
	// with Register. Empty means MAGMA.
	Mapper string
	// Objective defaults to Throughput.
	Objective Objective
	// Budget is the sampling budget for search mappers (default 10000,
	// §VI-B). Ignored by the manual heuristics.
	Budget int
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Cache answers the search from, and records it in, the problem's
	// memo of finished searches on the Solver (a private Solver's when
	// Solver is nil, which no later call shares). A cached search
	// without WarmStart seeds or a Progress observer that a Solver
	// already ran to the end on the same problem, mapper, budget and
	// seed is answered without running: the same schedule, with every
	// asked genome counted a cross-run hit and no Phases. Every search
	// that does run takes the same path, cached or not, so results are
	// bit-identical with the cache on or off.
	Cache bool
	// WarmStart seeds MAGMA's initial population with previously found
	// schedules of the same group size (§V-C). Ignored by other mappers.
	WarmStart []Schedule
	// Solver, when non-nil, runs the search against a long-lived Solver:
	// analysis tables and the memo of finished searches persist across
	// calls (results stay bit-identical to per-call runs).
	// Nil means a private single-use Solver — the historical facade
	// behavior.
	Solver *Solver
	// Progress, when non-nil, is called after every search generation
	// with a live snapshot (samples consumed, best fitness, cache
	// counters). It runs synchronously on the search goroutine: keep it
	// fast and non-blocking. Ignored by the manual heuristics, which
	// have no generations.
	Progress func(Progress)
}

// CacheStats reports how a search resolved its evaluations: re-asks
// answered from the previous batch, genomes simulated or settled by a
// bound, invalid genomes, and the genomes of a memo answer (see
// Options.Cache). Hits+Deduped+Misses+Invalid equals Schedule.Asked on
// every path.
type CacheStats = m3e.CacheStats

// MapperPanicError reports a panic recovered from a mapper callback
// (Init, Ask, Tell, or an evaluation it drove), carrying the mapper
// name, the callback, the panic value and the stack captured at the
// panic site. A panicking mapper — including third-party Registered
// ones — fails only its own Optimize call: the Solver it ran on stays
// consistent and subsequent calls (same problem, same seed) return
// bit-identical results. Detect it with errors.As.
type MapperPanicError = m3e.MapperPanicError

// PhaseTimings breaks a search's wall-clock down per generation phase:
// candidate generation (ask), the runner's pruning pass (bound),
// simulation, and selection+breeding (tell). See Schedule.Phases.
type PhaseTimings = m3e.PhaseTimings

// Curve is a search's best-so-far convergence curve (Figs. 10, 11, 16):
// the best fitness after each consumed sample, kept as runs of N equal
// samples of value V. Len is its sample count and At(i) the value after
// sample i. See Schedule.Curve.
type Curve = m3e.Curve

// Schedule is a found global mapping together with its evaluation.
type Schedule struct {
	// Mapping holds the per-core ordered job queues.
	Mapping sim.Mapping
	// Genome is the encoded form (usable as a warm-start seed).
	Genome encoding.Genome
	// ThroughputGFLOPs, Makespan and Energy evaluate the schedule.
	ThroughputGFLOPs float64
	MakespanCycles   float64
	EnergyUnits      float64
	// Fitness is the score under the requested objective.
	Fitness float64
	// Curve is the best-so-far fitness per consumed sample, one run per
	// improvement: Curve.Len() == Samples and Curve.At(i) is the best
	// after sample i (empty for the manual heuristics).
	Curve Curve
	// Mapper names the algorithm that produced the schedule.
	Mapper string
	// Cache holds the evaluation and bound-pruning counters of the
	// search (see CacheStats; always zero for the manual heuristics).
	Cache CacheStats
	// Samples is the sampling budget actually consumed; Asked is the
	// number of genomes processed. Every processed genome is one sample
	// (§VI-B), so the two are always equal.
	Samples int
	Asked   int
	// Phases is the search's per-phase wall-clock breakdown (ask /
	// bound / simulate / tell across all generations) — the
	// observability behind cmd/bench's phase report. Zero for the manual
	// heuristics, which have no generations, and for a search a Solver
	// answered from its memo of finished searches (see Options.Cache).
	Phases PhaseTimings
	// Partial reports that the search was aborted by its context
	// (deadline, cancel, client disconnect) before the budget ran out.
	// The schedule is the best found up to the last completed
	// generation — identical to the same-seed full run's best at that
	// point — and Curve holds the truncated convergence prefix.
	Partial bool
}

// Optimize searches for a mapping of the group onto the platform and
// returns the best schedule found. It is OptimizeCtx with
// context.Background(): not cancellable. New code that may need
// deadlines or aborts should prefer OptimizeCtx.
func Optimize(g Group, p Platform, opts Options) (Schedule, error) {
	return OptimizeCtx(context.Background(), g, p, opts)
}

// OptimizeCtx is Optimize under a context. When the context is
// cancelled or its deadline fires mid-search, the run stops at the next
// generation boundary (cancel latency is bounded by one generation's
// evaluation cost) and returns the best-so-far schedule with
// Schedule.Partial set — not an error. A context that is already dead
// before any generation completes returns the context's error. A thin
// wrapper over a Solver: the one in opts.Solver when set, otherwise a
// private single-use one (identical behavior to the historical per-call
// facade).
func OptimizeCtx(ctx context.Context, g Group, p Platform, opts Options) (Schedule, error) {
	return solverFor(opts.Solver).OptimizeCtx(ctx, g, p, opts)
}

func finishSchedule(prob *m3e.Problem, mapping sim.Mapping, genome encoding.Genome, curve Curve, mapper string, obj Objective) (Schedule, error) {
	fit, simRes, err := prob.EvaluateMapping(mapping)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{
		Mapping:          mapping,
		Genome:           genome,
		ThroughputGFLOPs: simRes.ThroughputGFLOPs,
		MakespanCycles:   simRes.TotalCycles,
		EnergyUnits:      simRes.Energy,
		Fitness:          fit,
		Curve:            curve,
		Mapper:           mapper,
	}, nil
}

// Compare runs several mappers on the same group and platform and
// returns their schedules sorted best-fitness-first. Mapper names as in
// Options.Mapper (Registered mappers included); an empty list means
// every built-in Table IV method. CompareCtx with context.Background().
//
// The job-analysis table is built once and shared (it is read-only
// during search), and the mappers run concurrently, up to GOMAXPROCS at
// a time, each search on its own goroutine. Every mapper keeps the seed
// it would get from a serial sweep (opts.Seed+i), so each schedule is
// the one its own Optimize returns. A thin wrapper over Solver.Compare
// (opts.Solver or a private one).
func Compare(g Group, p Platform, mappers []string, opts Options) ([]Schedule, error) {
	return CompareCtx(context.Background(), g, p, mappers, opts)
}

// CompareCtx is Compare under a context. On cancellation each mapper
// stops at its next generation boundary; mappers that already produced
// at least one evaluated sample return partial schedules (Schedule.
// Partial set), mappers with nothing yet are omitted, and the call
// returns the surviving leaderboard without error. Only when the
// context dies before any mapper evaluates anything does CompareCtx
// return the context's error.
func CompareCtx(ctx context.Context, g Group, p Platform, mappers []string, opts Options) ([]Schedule, error) {
	return solverFor(opts.Solver).CompareCtx(ctx, g, p, mappers, opts)
}

// RenderSchedule writes an ASCII Gantt-style visualization of a
// schedule (the Fig. 15 view) to w.
func RenderSchedule(w io.Writer, g Group, p Platform, s Schedule, cols int) error {
	prob, err := m3e.NewProblem(g, p, Throughput)
	if err != nil {
		return err
	}
	res, err := sim.Run(prob.Table, s.Mapping, sim.Options{CaptureFrames: true})
	if err != nil {
		return err
	}
	return sim.RenderGantt(w, prob.Table, res, cols)
}

// WarmStore accumulates solved schedules per task type and seeds future
// searches of the same type (§V-C). Safe for concurrent use, so a
// Solver can share one across requests (Solver.Warm).
type WarmStore struct {
	mu    sync.Mutex
	inner *optmagma.WarmStore
}

// NewWarmStore builds a store keeping up to limit schedules per task
// (limit <= 0 means 8).
func NewWarmStore(limit int) *WarmStore {
	return &WarmStore{inner: optmagma.NewWarmStore(limit)}
}

// Record remembers a solved schedule for the task type.
func (w *WarmStore) Record(task Task, s Schedule) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inner.Record(task, s.Genome)
}

// Known reports whether the store has seen the task type.
func (w *WarmStore) Known(task Task) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inner.Known(task)
}

// Seeds returns warm-start seeds compatible with a new group of the
// given size, newest first. The returned schedules are deep copies —
// safe to hold after later Records.
func (w *WarmStore) Seeds(task Task, groupSize int) []Schedule {
	w.mu.Lock()
	gs := w.inner.SeedsFor(task, groupSize)
	w.mu.Unlock()
	out := make([]Schedule, len(gs))
	for i, g := range gs {
		out[i] = Schedule{Genome: g}
	}
	return out
}
