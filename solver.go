package magma

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
)

// SolverOptions configures a long-lived Solver.
type SolverOptions struct {
	// MaxProblems bounds the number of cached problems (analysis table ×
	// objective); 0 means the engine default (64). Oldest entries are
	// evicted first; memory stays bounded no matter how many distinct
	// workloads a server sees.
	MaxProblems int
}

// SolverStats reports what a Solver reused versus rebuilt: completed
// searches (MemoHits of them answered from a memo of finished
// searches), analysis tables built/reused, FIFO evictions, and the
// aggregated evaluation counters — Cache.CrossHits is the
// cross-run payoff (the genomes of every memo answer).
type SolverStats = engine.Stats

// Solver is the long-lived, concurrency-safe entry point to the
// library. It owns the state a per-call facade rebuilds and discards on
// every request:
//
//   - a problem cache keyed by content identity (group layers/batches ×
//     platform configuration × objective), so repeated requests skip
//     the job-analysis profiling pass;
//   - a memo of finished searches per problem, so an exact repeat of a
//     cached search (same mapper, budget and seed) is answered without
//     running it (Options.Cache). The memo is the only reuse of results
//     across requests, and what Snapshot persists.
//
// Results are bit-identical to fresh per-call runs: everything shared
// is either read-only during search (tables) or a pure-function memo
// (finished searches), so reuse changes wall-clock, never schedules,
// and every answer is a function of its call alone.
// Each search that runs builds its own evaluator and drops it when it
// ends; nothing of a run's scratch outlives it.
// All methods are safe for concurrent use.
//
// The package-level Optimize, OptimizeStream, Compare and Tune are thin
// wrappers that run on a private single-use Solver unless the passed
// Options/StreamOptions carry an explicit one.
type Solver struct {
	eng *engine.Engine
}

// NewSolver builds a long-lived Solver.
func NewSolver(o SolverOptions) *Solver {
	return &Solver{eng: engine.New(engine.Config{MaxProblems: o.MaxProblems})}
}

// Stats returns a snapshot of the Solver's reuse counters.
func (s *Solver) Stats() SolverStats { return s.eng.Stats() }

// solverFor returns the explicitly provided Solver, or a fresh private
// one — which makes the package-level entry points behave exactly like
// the historical per-call facade (no state survives the call).
func solverFor(s *Solver) *Solver {
	if s != nil {
		return s
	}
	return NewSolver(SolverOptions{})
}

// Optimize searches for a mapping of the group onto the platform, as
// the package-level Optimize, but against the Solver's cached problem
// and its memo of finished searches. OptimizeCtx with
// context.Background().
func (s *Solver) Optimize(g Group, p Platform, opts Options) (Schedule, error) {
	return s.OptimizeCtx(context.Background(), g, p, opts)
}

// OptimizeCtx is Optimize under a context; see the package-level
// OptimizeCtx for the cancellation contract (best-so-far schedule with
// Partial set, never a half-applied generation).
func (s *Solver) OptimizeCtx(ctx context.Context, g Group, p Platform, opts Options) (Schedule, error) {
	if err := opts.Validate(); err != nil {
		return Schedule{}, err
	}
	h, err := s.eng.Problem(g, p, opts.Objective)
	if err != nil {
		return Schedule{}, err
	}
	return s.optimizeHandle(ctx, h, g, opts)
}

// optimizeHandle runs one mapper against a leased problem, letting
// Compare share a single job-analysis table across every mapper instead
// of re-profiling the group per mapper. The caller has validated opts.
func (s *Solver) optimizeHandle(ctx context.Context, h *engine.ProblemHandle, g Group, opts Options) (Schedule, error) {
	prob := h.Prob()
	if mapper := heuristicFor(opts.Mapper); mapper != nil {
		mapping, err := mapper.Map(prob.Table)
		if err != nil {
			return Schedule{}, err
		}
		return finishSchedule(prob, mapping, encoding.Genome{}, nil, mapper.Name(), opts.Objective)
	}
	// A cached search with nothing outside its key to steer or watch it
	// (no warm-start seeds, no observer) is a pure function of its
	// problem and key, so an exact repeat is answered from the
	// problem's memo of finished searches.
	memo := opts.Cache && len(opts.WarmStart) == 0 && opts.Progress == nil
	key := engine.MemoKey{Mapper: mapperName(opts.Mapper), Budget: opts.Budget, Seed: opts.Seed}
	if key.Budget <= 0 {
		key.Budget = m3e.DefaultBudget
	}
	if memo {
		if e, cache, ok := h.Recall(key); ok {
			return thaw(e, prob.NumAccels(), cache), nil
		}
	}
	opt, err := newOptimizer(opts.Mapper)
	if err != nil {
		return Schedule{}, err
	}
	if len(opts.WarmStart) > 0 {
		if seeder, ok := opt.(m3e.Seeder); ok {
			seeds := make([]encoding.Genome, 0, len(opts.WarmStart))
			for _, ws := range opts.WarmStart {
				if ws.Genome.NumJobs() == len(g.Jobs) {
					seeds = append(seeds, ws.Genome)
				}
			}
			seeder.Seed(seeds)
		}
	}
	res, err := h.RunCtx(ctx, opt, m3e.Options{Budget: opts.Budget, Observer: opts.Progress}, opts.Seed)
	if err != nil {
		return Schedule{}, err
	}
	if res.Aborted && res.Asked == 0 {
		// Dead before the first generation: there is no best-so-far
		// schedule to return.
		return Schedule{}, ctx.Err()
	}
	sched, err := finishSchedule(prob, res.BestMapping(prob.NumAccels()), res.Best, res.Curve, res.Method, opts.Objective)
	if err != nil {
		return Schedule{}, err
	}
	sched.Cache = res.Cache
	sched.Samples = res.Samples
	sched.Asked = res.Asked
	sched.Phases = res.Phases
	sched.Partial = res.Aborted
	if memo && !res.Aborted {
		h.Remember(freeze(key, sched))
	}
	return sched, nil
}

// Compare runs several mappers on the same group and platform and
// returns their schedules sorted best-fitness-first, as the
// package-level Compare. CompareCtx with context.Background().
func (s *Solver) Compare(g Group, p Platform, mappers []string, opts Options) ([]Schedule, error) {
	return s.CompareCtx(context.Background(), g, p, mappers, opts)
}

// CompareCtx is Compare under a context. The job-analysis table is
// leased once from the Solver's cache; with Options.Cache set, each
// mapper's search is answered from and recorded in the problem's memo
// of finished searches. On cancellation, mappers
// that evaluated at least one sample return partial schedules; mappers
// with nothing yet are omitted (see the package-level CompareCtx).
func (s *Solver) CompareCtx(ctx context.Context, g Group, p Platform, mappers []string, opts Options) ([]Schedule, error) {
	if len(mappers) == 0 {
		mappers = MapperNames()
	}
	if err := opts.validateFor(mappers); err != nil {
		return nil, err
	}
	h, err := s.eng.Problem(g, p, opts.Objective)
	if err != nil {
		return nil, err
	}
	workers := min(runtime.GOMAXPROCS(0), len(mappers))
	if opts.Progress != nil {
		// Mappers run concurrently, but Options.Progress promises its
		// caller a non-overlapping callback — serialize it here so a
		// non-thread-safe observer stays safe on the Compare path.
		var mu sync.Mutex
		orig := opts.Progress
		opts.Progress = func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			orig(p)
		}
	}
	filled := make([]bool, len(mappers))
	out := make([]Schedule, len(mappers))
	errs := make([]error, len(mappers))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, name := range mappers {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opts
			o.Mapper = name
			o.Seed = opts.Seed + int64(i)
			sched, err := s.optimizeHandle(ctx, h, g, o)
			switch {
			case err == nil:
				out[i] = sched
				filled[i] = true
			case ctx.Err() != nil && err == ctx.Err():
				// Cancelled before this mapper produced anything: drop the
				// entry rather than failing the whole leaderboard.
			default:
				errs[i] = fmt.Errorf("magma: mapper %s: %w", name, err)
			}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	kept := out[:0]
	for i, s := range out {
		if filled[i] {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Fitness > kept[j].Fitness })
	return kept, nil
}

// OptimizeStream schedules every group of a workload in sequence, as
// the package-level OptimizeStream, but against the Solver's caches.
// Groups of identical content (and repeated requests for the same
// workload) reuse analysis tables, and with StreamOptions.Cache a
// repeated search is answered from its problem's memo —
// StreamResult.Cache.CrossHits counts the reuse.
//
// Warm starting is per call: each stream chains only on its own groups,
// so repeated requests stay bit-identical.
func (s *Solver) OptimizeStream(wl Workload, p Platform, opts StreamOptions) (StreamResult, error) {
	return s.OptimizeStreamCtx(context.Background(), wl, p, opts)
}

// OptimizeStreamCtx is OptimizeStream under a context. Cancellation
// stops the stream: the in-flight group contributes its best-so-far
// schedule (Schedule.Partial set) when it has one, later groups are not
// started, and the truncated StreamResult is returned with Partial set —
// not an error. Only a context that dies before any schedule exists
// returns the context's error.
func (s *Solver) OptimizeStreamCtx(ctx context.Context, wl Workload, p Platform, opts StreamOptions) (StreamResult, error) {
	if len(wl.Groups) == 0 {
		return StreamResult{}, fmt.Errorf("magma: workload has no groups")
	}
	if err := opts.Validate(); err != nil {
		return StreamResult{}, err
	}
	var store *WarmStore
	if opts.WarmStart {
		store = NewWarmStore(0)
	}
	var res StreamResult
	var totalFLOPs int64
	for gi, g := range wl.Groups {
		if ctx.Err() != nil {
			res.Partial = true
			break
		}
		o := Options{
			Mapper:    opts.Mapper,
			Objective: opts.Objective,
			Budget:    GroupBudget(opts.BudgetPerGroup, len(wl.Groups), len(g.Jobs)),
			Seed:      opts.Seed + int64(gi),
			Cache:     opts.Cache,
		}
		if opts.Progress != nil {
			gi := gi
			o.Progress = func(p Progress) { opts.Progress(gi, p) }
		}
		if opts.WarmStart {
			o.WarmStart = store.Seeds(wl.Task, len(g.Jobs))
		}
		sched, err := s.OptimizeCtx(ctx, g, p, o)
		if err != nil {
			if ctx.Err() != nil && err == ctx.Err() {
				// Cancelled before this group's first generation: no
				// partial schedule to keep.
				res.Partial = true
				break
			}
			return StreamResult{}, fmt.Errorf("magma: group %d of %d (task %s, %d jobs): %w",
				gi, len(wl.Groups), wl.Task, len(g.Jobs), err)
		}
		if opts.WarmStart && sched.Genome.NumJobs() == len(g.Jobs) {
			store.Record(wl.Task, sched)
		}
		res.Schedules = append(res.Schedules, sched)
		res.Cache.Add(sched.Cache)
		res.Phases.Add(sched.Phases)
		totalFLOPs += g.TotalFLOPs()
		res.TotalSeconds += sched.MakespanCycles / clockHz()
		if sched.Partial {
			res.Partial = true
			break
		}
	}
	if res.Partial && len(res.Schedules) == 0 {
		return StreamResult{}, ctx.Err()
	}
	res.TotalGFLOPs = float64(totalFLOPs) / 1e9
	if res.TotalSeconds > 0 {
		res.ThroughputGFLOPs = res.TotalGFLOPs / res.TotalSeconds
	}
	return res, nil
}

// Tune searches MAGMA's hyper-parameter space, as the package-level
// Tune, against the Solver's cached problem: every trial re-runs MAGMA
// on the one analysis table. The first
// evaluation error aborts the search and is returned (a silent zero
// would bias the tuner toward broken configurations).
func (s *Solver) Tune(g Group, p Platform, budget int, trials int, seed int64) ([]float64, float64, error) {
	return s.TuneCtx(context.Background(), g, p, budget, trials, seed)
}

// TuneCtx is Tune under a context. Cancellation aborts the in-flight
// trial at its next generation boundary (its truncated score is
// discarded) and stops the trial loop; the best configuration of the
// completed trials is returned together with the context's error, so
// callers can both detect the abort and use the partial answer.
func (s *Solver) TuneCtx(ctx context.Context, g Group, p Platform, budget int, trials int, seed int64) ([]float64, float64, error) {
	h, err := s.eng.Problem(g, p, Throughput)
	if err != nil {
		return nil, 0, err
	}
	space := tunerSpace()
	var mu sync.Mutex
	var firstErr error
	obj := func(pt []float64) float64 {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			// Once a trial has failed the run is doomed; stop burning
			// budget and let every later probe score -Inf.
			return math.Inf(-1)
		}
		cfg := optmagma.Config{
			MutationRate:       pt[0],
			CrossoverGenRate:   pt[1],
			CrossoverRGRate:    pt[2],
			CrossoverAccelRate: pt[3],
			EliteRatio:         pt[4],
		}
		res, err := h.RunCtx(ctx, optmagma.New(cfg), m3e.Options{Budget: budget}, seed)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return math.Inf(-1)
		}
		if res.Aborted {
			// A truncated trial's score is not comparable to full trials;
			// the tuner's own ctx check ends the loop right after.
			return math.Inf(-1)
		}
		return res.BestFitness
	}
	res, err := runTuner(ctx, space, obj, trials, seed)
	if err != nil {
		return nil, 0, err
	}
	if firstErr != nil {
		return nil, 0, fmt.Errorf("magma: tune trial failed: %w", firstErr)
	}
	if res.Aborted {
		return res.Best, res.BestScore, ctx.Err()
	}
	return res.Best, res.BestScore, nil
}
