package magma

import "context"

// StreamOptions configures OptimizeStream.
type StreamOptions struct {
	// Mapper as in Options (default MAGMA).
	Mapper string
	// Objective defaults to Throughput.
	Objective Objective
	// BudgetPerGroup is the sampling budget spent on each group
	// (default 10000 / number of groups, at least 20 generations —
	// i.e. a floor of 20×(group size) samples, which overrides a
	// smaller explicit BudgetPerGroup too).
	BudgetPerGroup int
	// Seed drives all randomness.
	Seed int64
	// Cache answers every group search from, and records it in, its
	// problem's memo of finished searches (results are bit-identical
	// either way; see Options.Cache). Groups of identical content share
	// a memo, and with a long-lived Solver the memos persist across
	// calls (StreamResult.Cache.CrossHits counts that reuse).
	Cache bool
	// WarmStart chains groups: each group's search is seeded with the
	// best schedules of earlier groups of the same task type (§V-C).
	// Only effective for MAGMA.
	WarmStart bool
	// SharedWarm, with WarmStart and a long-lived Solver, seeds groups
	// from (and records into) the Solver's cross-request warm store
	// instead of a per-call one. Opt-in: cross-request seeding changes
	// search trajectories, so repeated identical requests are no longer
	// bit-identical.
	SharedWarm bool
	// Solver, when non-nil, runs every group against a long-lived
	// Solver (see Options.Solver). Nil means a private single-use one.
	Solver *Solver
	// Progress, when non-nil, is called after every generation of every
	// group search with the group index and the live snapshot. Same
	// contract as Options.Progress: synchronous, keep it fast.
	Progress func(group int, p Progress)
}

// StreamResult aggregates a scheduled workload stream.
type StreamResult struct {
	// Schedules holds one schedule per group, in order.
	Schedules []Schedule
	// TotalGFLOPs is the stream's total work.
	TotalGFLOPs float64
	// TotalSeconds is the summed group makespans (groups are dependency
	// barriers: the host launches the next group when one finishes).
	TotalSeconds float64
	// ThroughputGFLOPs is the aggregate stream throughput.
	ThroughputGFLOPs float64
	// Cache aggregates the evaluation and pruning counters across all
	// group searches, memo answers included (StreamOptions.Cache).
	Cache CacheStats
	// Phases aggregates the per-phase wall-clock breakdown across all
	// group searches (see Schedule.Phases).
	Phases PhaseTimings
	// Partial reports that the stream was aborted by its context before
	// every group was scheduled: Schedules holds the completed prefix,
	// whose last entry may itself be partial (Schedule.Partial).
	Partial bool
}

// OptimizeStream schedules every group of a workload in sequence — the
// deployment loop of the multi-tenant system (Fig. 1): the host chops
// the job queue into dependency-free groups, and the mapper places each
// group, optionally warm-starting from previously solved groups. A thin
// wrapper over Solver.OptimizeStream (opts.Solver or a private one);
// OptimizeStreamCtx with context.Background().
func OptimizeStream(wl Workload, p Platform, opts StreamOptions) (StreamResult, error) {
	return OptimizeStreamCtx(context.Background(), wl, p, opts)
}

// OptimizeStreamCtx is OptimizeStream under a context: cancellation
// truncates the stream to the groups scheduled so far (the in-flight
// group contributes its best-so-far schedule) and sets StreamResult.
// Partial; see Solver.OptimizeStreamCtx.
func OptimizeStreamCtx(ctx context.Context, wl Workload, p Platform, opts StreamOptions) (StreamResult, error) {
	return solverFor(opts.Solver).OptimizeStreamCtx(ctx, wl, p, opts)
}

// clockHz exposes the platform clock for cycle-to-time conversion.
func clockHz() float64 { return platformClockHz }

// Tune searches MAGMA's hyper-parameter space (operator rates and elite
// ratio, §V-B3) for one problem instance with the SMBO tuner and
// returns the best configuration found as (mutation, crossover-gen,
// crossover-rg, crossover-accel, elite-ratio) plus its fitness. The
// first trial-evaluation error aborts the search and is returned. A
// thin wrapper over Solver.Tune on a private single-use Solver; TuneCtx
// with context.Background().
func Tune(g Group, p Platform, budget int, trials int, seed int64) ([]float64, float64, error) {
	return NewSolver(SolverOptions{}).Tune(g, p, budget, trials, seed)
}

// TuneCtx is Tune under a context: cancellation stops the trial loop
// and returns the best configuration of the completed trials together
// with the context's error (see Solver.TuneCtx).
func TuneCtx(ctx context.Context, g Group, p Platform, budget int, trials int, seed int64) ([]float64, float64, error) {
	return NewSolver(SolverOptions{}).TuneCtx(ctx, g, p, budget, trials, seed)
}
