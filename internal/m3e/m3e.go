// Package m3e is the Multi-workload Multi-accelerator Mapping Explorer
// (§IV): the optimization framework that wraps the job analyzer, the
// encoding, the BW allocator and a pluggable optimization algorithm into
// the optimization–evaluation loop of Fig. 3.
//
// The framework is algorithm-agnostic: optimizers implement a small
// Ask/Tell interface, which lets the runner account for every evaluated
// sample (the paper compares methods at a fixed sampling budget) and
// capture best-so-far convergence curves (Figs. 10, 11, 16).
package m3e

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"magma/internal/analyzer"
	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/platform"
	"magma/internal/rng"
	"magma/internal/sim"
	"magma/internal/workload"
)

// Objective selects the fitness the framework maximizes (§IV-C).
type Objective uint8

const (
	// Throughput maximizes group GFLOP/s (the paper's main objective).
	Throughput Objective = iota
	// Latency minimizes the group makespan.
	Latency
	// Energy minimizes total energy (compute + DRAM + leakage).
	Energy
	// EDP minimizes the energy-delay product.
	EDP
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case Throughput:
		return "Throughput"
	case Latency:
		return "Latency"
	case Energy:
		return "Energy"
	case EDP:
		return "EDP"
	default:
		return fmt.Sprintf("Objective(%d)", uint8(o))
	}
}

// Problem is one mapping-search instance: a job group on a platform
// under an objective, with its job analysis table prebuilt (§IV-E
// pre-process step).
type Problem struct {
	Table     *analyzer.Table
	Objective Objective
	Group     workload.Group
	Platform  platform.Platform
	Task      fmt.Stringer // informative; used by the warm-start engine

	// Kernel selects the simulator implementation every evaluator built
	// for this problem uses. The zero value is the default (v2) kernel;
	// KernelV1 pins the reference frame loop — the ablation/benchmark
	// baseline. The two kernels agree only within the simulator's
	// retirement tolerances, so cached fitness must never be shared
	// across kernels (the persist layer versions snapshots by kernel).
	Kernel sim.Kernel
}

// NewProblem builds the analysis table and wraps it as a Problem.
func NewProblem(g workload.Group, p platform.Platform, obj Objective) (*Problem, error) {
	if len(g.Jobs) < p.NumAccels() {
		// §III: group size should be >= the number of sub-accelerators,
		// otherwise some cores are guaranteed idle. We warn by error,
		// since the benchmark never does this deliberately.
		return nil, fmt.Errorf("m3e: group of %d jobs smaller than %d sub-accelerators",
			len(g.Jobs), p.NumAccels())
	}
	tab, err := analyzer.Build(g, p)
	if err != nil {
		return nil, err
	}
	return &Problem{Table: tab, Objective: obj, Group: g, Platform: p}, nil
}

// ProblemFromTable wraps an already-built analysis table under an
// objective. The table is read-only during search, so one table may
// back any number of Problems (one per objective) concurrently — the
// reuse a long-lived engine exploits to skip re-profiling a repeated
// (group, platform) pair.
func ProblemFromTable(t *analyzer.Table, obj Objective) *Problem {
	return &Problem{Table: t, Objective: obj, Group: t.Group, Platform: t.Platform}
}

// NumJobs returns the group size.
func (p *Problem) NumJobs() int { return len(p.Group.Jobs) }

// NumAccels returns the platform core count.
func (p *Problem) NumAccels() int { return p.Platform.NumAccels() }

// Fitness converts a simulation result into a higher-is-better score.
func (p *Problem) Fitness(res sim.Result) float64 {
	switch p.Objective {
	case Throughput:
		return res.ThroughputGFLOPs
	case Latency:
		return -res.TotalCycles
	case Energy:
		return -res.Energy
	case EDP:
		return -res.Energy * res.Seconds
	default:
		return res.ThroughputGFLOPs
	}
}

// Evaluate decodes and simulates one individual, returning its fitness.
// It allocates fresh scratch per call; hot loops use an Evaluator.
func (p *Problem) Evaluate(g encoding.Genome) (float64, error) {
	ev := Evaluator{p: p, sim: sim.NewSimulator(sim.Options{Kernel: p.Kernel})}
	return ev.Evaluate(g)
}

// Evaluator is the reusable genome→fitness pipeline: it owns a decode
// scratch Mapping and a sim.Simulator, so repeated Evaluate calls on the
// same problem perform zero steady-state heap allocations. Evaluators
// are not safe for concurrent use — the parallel runner gives each
// worker its own.
type Evaluator struct {
	p      *Problem
	sim    *sim.Simulator
	m      sim.Mapping
	cycles []float64 // per-core scratch of sim.Bounds.GenomeResult
}

// NewEvaluator builds an evaluator bound to the problem.
func (p *Problem) NewEvaluator() *Evaluator {
	return &Evaluator{p: p, sim: sim.NewSimulator(sim.Options{Kernel: p.Kernel}),
		cycles: make([]float64, p.NumAccels())}
}

// Evaluate decodes and simulates one individual, returning its fitness.
// Equal genomes produce bit-identical fitness regardless of which
// Evaluator runs them — the determinism the parallel runner relies on.
func (e *Evaluator) Evaluate(g encoding.Genome) (float64, error) {
	if err := g.Validate(e.p.NumJobs(), e.p.NumAccels()); err != nil {
		return 0, err
	}
	return e.evaluateValid(g)
}

// evaluateValid is Evaluate for a genome already known to be valid.
func (e *Evaluator) evaluateValid(g encoding.Genome) (float64, error) {
	if err := fault.Hit(fault.M3ESimulate); err != nil {
		return 0, err
	}
	encoding.DecodeInto(g, e.p.NumAccels(), &e.m)
	res, err := e.sim.Run(e.p.Table, e.m)
	if err != nil {
		return 0, err
	}
	return e.p.Fitness(res), nil
}

// EvaluateMapping scores an already-decoded mapping without re-decoding
// or re-validating a genome. The fitness cache uses it to simulate each
// representative straight from the mapping its fingerprint pass decoded,
// so a cache miss still pays for exactly one decode.
func (e *Evaluator) EvaluateMapping(m *sim.Mapping) (float64, error) {
	if err := fault.Hit(fault.M3ESimulate); err != nil {
		return 0, err
	}
	res, err := e.sim.Run(e.p.Table, *m)
	if err != nil {
		return 0, err
	}
	return e.p.Fitness(res), nil
}

// EvaluateMapping scores an already-decoded mapping (used for the
// manual-heuristic baselines, which bypass the encoding).
func (p *Problem) EvaluateMapping(m sim.Mapping) (float64, sim.Result, error) {
	res, err := sim.Run(p.Table, m, sim.Options{Kernel: p.Kernel})
	if err != nil {
		return 0, sim.Result{}, err
	}
	return p.Fitness(res), res, nil
}

// Optimizer is the pluggable search algorithm interface (§IV-B). The
// runner repeatedly Asks for a batch of candidate individuals, evaluates
// them (each evaluation consumes one unit of sampling budget), and Tells
// the optimizer their fitness.
type Optimizer interface {
	// Name identifies the method (as in Table IV).
	Name() string
	// Init prepares the optimizer for a problem. It may inspect the
	// analysis table (the RL methods build their observation features
	// from it) but must not evaluate mappings. The stream is the run's
	// root RNG (layout v2): sequential optimizers draw from it directly,
	// splittable ones derive per-(generation, slot) sub-streams so their
	// variation step parallelizes without losing determinism.
	Init(p *Problem, rng *rng.Stream) error
	// Ask returns the next batch of candidates to evaluate.
	Ask() []encoding.Genome
	// Tell reports the fitness of the candidates returned by Ask.
	// When the budget truncates a batch, only the evaluated prefix is
	// reported.
	Tell(genomes []encoding.Genome, fitness []float64)
}

// Seeder is implemented by optimizers that accept warm-start seeds
// (§V-C): individuals injected into the initial population.
type Seeder interface {
	Seed(genomes []encoding.Genome)
}

// Breeder fans an index-addressed variation task across workers: it
// runs f(i) for every i in [0, n), in unspecified order, possibly
// concurrently, and returns when all calls complete. f must touch only
// state owned by index i (plus read-only shared state) — the same
// discipline the evaluation pool enforces. Pool implements Breeder.
type Breeder interface {
	Breed(n int, f func(i int))
}

// PoolBreeder is implemented by optimizers whose Tell fans per-child
// variation out across workers. Run hands such optimizers the batch's
// evaluation pool right after Init, so breeding shares the worker set
// evaluation already owns. Optimizers must stay bit-identical with and
// without a breeder at any worker count (per-child RNG streams make
// this free); a nil-breeder optimizer simply breeds serially.
type PoolBreeder interface {
	SetBreeder(b Breeder)
}

// ReaskTracker is implemented by optimizers that re-ask genomes of
// the previous batch verbatim (MAGMA and stdGA re-submit their elites
// every generation). Reasks is re-read after each Ask: entry i is the
// index in the previously told batch of the genome slot i re-asks
// bit-identically, or -1 for a bred child. It returns nil before the
// first Tell. Indices beyond the evaluated prefix of the previous batch
// are ignored.
type ReaskTracker interface {
	Reasks() []int
}

// EliteSelector is implemented by optimizers whose Tell consumes the
// reported fitness values only through the identity and order of the
// top-k ranked candidates: any change to values strictly below the
// k-th best (that keeps them strictly below it) must leave the
// optimizer's state bit-identical. EliteCount returns that k for a
// batch of told evaluated genomes. The contract is what makes the
// runner's bound-based pruning selection-safe: a candidate whose
// fitness upper bound is already below the k-th best known-exact value
// of the batch can be assigned the bound instead of being simulated
// without perturbing selection. Run prunes only optimizers that
// implement both this and ReaskTracker (the exact values come from
// verbatim elite re-asks); everyone else is evaluated in full.
type EliteSelector interface {
	EliteCount(told int) int
}

// Result summarizes one search run.
type Result struct {
	Method      string
	Best        encoding.Genome
	BestFitness float64
	Samples     int         // budget units consumed (see Options.EffectiveBudget)
	Asked       int         // genomes processed (== Samples unless EffectiveBudget)
	Curve       []float64   // best-so-far fitness after each consumed sample
	Explored    [][]float64 // sampled vectors (only when RecordSamples)
	Cache       CacheStats  // hit/miss and pruning counters (see CacheStats)
	// Phases breaks the run's wall-clock down per generation phase
	// (ask / fingerprint / simulate / tell), so callers can see where a
	// generation's time goes — e.g. whether parallel breeding actually
	// shrank the tell phase. Always recorded; the cost is a handful of
	// clock reads per generation.
	Phases PhaseTimings
	// Aborted reports that the run's context was cancelled (deadline or
	// explicit cancel) before the budget was exhausted. The Result is
	// still valid: Best/Curve hold the best-so-far state at the last
	// completed generation — exactly the prefix a full run would have
	// produced — so callers can use the partial schedule directly.
	Aborted bool
}

// PhaseTimings accumulates wall-clock per runner phase across a run.
// Ask is candidate generation, Fingerprint the cache's parallel
// validate+decode+hash pass plus its serial dedup scan (zero when the
// cache is off), Simulate the worker-pool evaluation of the batch (or
// of the deduped representatives), and Tell selection plus breeding.
type PhaseTimings struct {
	AskNs         int64 `json:"ask_ns"`
	FingerprintNs int64 `json:"fingerprint_ns"`
	// BoundNs is the runner's pruning pass (optimizers it prunes only):
	// validation, the genome roofline bounds and the elite-floor scan
	// that decides which genomes skip decode and the simulator.
	BoundNs    int64 `json:"bound_ns"`
	SimulateNs int64 `json:"simulate_ns"`
	TellNs     int64 `json:"tell_ns"`
	// Generations counts completed Ask/Tell rounds.
	Generations int `json:"generations"`
}

// Add accumulates another run's phase timings.
func (p *PhaseTimings) Add(o PhaseTimings) {
	p.AskNs += o.AskNs
	p.FingerprintNs += o.FingerprintNs
	p.BoundNs += o.BoundNs
	p.SimulateNs += o.SimulateNs
	p.TellNs += o.TellNs
	p.Generations += o.Generations
}

// Progress is one per-generation observer snapshot (Options.Observer).
type Progress struct {
	// Generation counts completed Ask/Tell rounds, starting at 1.
	Generation int
	// Samples is the budget consumed so far, out of Budget.
	Samples int
	// Asked is the number of genomes processed so far (== Samples unless
	// Options.EffectiveBudget charges only distinct schedules).
	Asked int
	// Budget is the run's total sampling budget.
	Budget int
	// BestFitness is the best fitness found so far.
	BestFitness float64
	// Cache holds the fitness-cache and pruning counters so far.
	Cache CacheStats
}

// Options tunes the runner.
type Options struct {
	Budget        int  // sampling budget (default 10000, §VI-B)
	RecordSamples bool // keep every sampled vector (Fig. 10 PCA)
	// Workers is the number of evaluation goroutines per Ask batch.
	// 0 means GOMAXPROCS; 1 runs strictly serial. Results are
	// bit-identical for every worker count (see Run).
	Workers int
	// Cache enables the schedule-fingerprint fitness cache: each Ask
	// batch is deduplicated by decoded-schedule fingerprint and genomes
	// whose schedule was already evaluated this run are answered from
	// the cache. Results stay bit-identical to the uncached path —
	// evaluation is pure, so a cached fitness equals a recomputed one —
	// while redundant samples (re-Asked elites, equivalent offspring)
	// skip the simulator. Result.Cache reports the hit/miss counters.
	Cache bool
	// CacheSize bounds the cache (entries). 0 means DefaultCacheSize.
	CacheSize int
	// Store optionally supplies a shared cross-run fingerprint→fitness
	// store (implies Cache; CacheSize is then the store's concern, not
	// the run's). The store must be dedicated to this problem's identity
	// — same group content, platform and objective — and may be shared
	// across sequential or concurrent runs: entries inserted by one run
	// answer lookups of another (Result.Cache.CrossHits counts these),
	// with results still bit-identical to a cold run.
	Store *CacheStore
	// Pool optionally supplies a prebuilt evaluation pool bound to this
	// problem (Workers is then ignored). A pool's evaluators keep their
	// grown scratch across runs, so a long-lived engine reuses pools
	// instead of re-growing simulator buffers per request. A Pool serves
	// one run at a time.
	Pool *Pool
	// Scratch optionally supplies a leased FitnessCache whose grown
	// batch scratch — the decoded mappings the simulator reads — is
	// reused across runs (the engine free-lists them like pools). The
	// cache must be bound to this problem and its shared store; Run
	// rebinds it (fresh run id, cleared counters) before use.
	// Implies the cache path; takes precedence over Store/Cache.
	Scratch *FitnessCache
	// Context, when non-nil, makes the run cancellable: the loop checks
	// it once per generation (between Tell and the next Ask), so a
	// deadline or cancel aborts within one generation's evaluation cost
	// and Run returns the best-so-far Result with Aborted set — not an
	// error. Nil means context.Background() (never cancelled).
	Context context.Context
	// Observer, when non-nil, is called after every completed generation
	// with a progress snapshot. It runs synchronously on the search
	// goroutine, so it must be fast and must not block; a slow observer
	// stalls the search itself.
	Observer func(Progress)
	// EffectiveBudget, with the cache on, charges the sampling budget
	// only for genomes that actually reach the simulator (cache misses)
	// or fail validation; cache hits and in-batch duplicates are free.
	// Highly redundant optimizers (CMA-ES re-asks up to 80% duplicate
	// schedules at small groups) then explore several times more of the
	// space for the same budget. Off by default — the paper charges every
	// sample — and an error without Cache/Store, since without a cache
	// there is nothing to distinguish distinct schedules by. Asked vs
	// Samples in the Result reports the stretch. To bound runs whose
	// optimizer collapses onto all-cached batches, a run stops once Asked
	// reaches EffectiveBudgetStretchCap times the budget. It also turns
	// bound pruning off: a pruned genome is never fingerprinted, so the
	// run could not tell whether it was distinct.
	EffectiveBudget bool
}

// EffectiveBudgetStretchCap bounds an EffectiveBudget run: at most this
// many genomes are processed per unit of budget, so an optimizer that
// degenerates to asking only already-cached schedules still terminates.
const EffectiveBudgetStretchCap = 100

// Pool evaluates batches of genomes across a fixed set of workers, each
// owning its own Evaluator (simulator + decode scratch). Fitness is
// written by batch index, so the output order is independent of worker
// scheduling; invalid genomes score -Inf, mirroring constraint-violating
// samples.
type Pool struct {
	evs []*Evaluator
}

// NewPool builds a pool of `workers` evaluators for the problem
// (workers <= 0 means GOMAXPROCS).
func NewPool(p *Problem, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	evs := make([]*Evaluator, workers)
	for i := range evs {
		evs[i] = p.NewEvaluator()
	}
	return &Pool{evs: evs}
}

// Workers returns the pool's worker count.
func (pl *Pool) Workers() int { return len(pl.evs) }

// Breed implements Breeder: it runs f(i) for every i in [0, n) across
// the pool's workers (order unspecified, one call per index). The
// evaluators themselves are untouched — the pool only lends its worker
// fan-out, so optimizers can parallelize variation on the same worker
// set that evaluates their batches.
func (pl *Pool) Breed(n int, f func(i int)) {
	pl.each(n, func(_ *Evaluator, i int) { f(i) })
}

// Evaluate scores batch[i] into fit[i] for every i. Workers pull batch
// indices from a shared counter, so load balances even when evaluation
// cost varies across genomes.
func (pl *Pool) Evaluate(batch []encoding.Genome, fit []float64) { pl.evaluate(batch, nil, fit) }

// evaluate is Evaluate behind the pruning pass: with slot states, only
// the genomes it left open are scored, and without re-validation.
func (pl *Pool) evaluate(batch []encoding.Genome, state []uint8, fit []float64) {
	pl.each(len(batch), func(ev *Evaluator, i int) {
		var f float64
		var err error
		switch {
		case state == nil:
			f, err = ev.Evaluate(batch[i])
		case state[i] == slotOpen:
			f, err = ev.evaluateValid(batch[i])
		default:
			return
		}
		if err != nil {
			f = math.Inf(-1)
		}
		fit[i] = f
	})
}

// evaluateMapped simulates the representatives reps (indices into maps)
// across the pool, writing the score of maps[reps[k]] into fit[k]. The
// mappings are read-only during the call; each slot is touched by
// exactly one worker.
func (pl *Pool) evaluateMapped(maps []sim.Mapping, reps []int, fit []float64) {
	pl.each(len(reps), func(ev *Evaluator, k int) {
		f, err := ev.EvaluateMapping(&maps[reps[k]])
		if err != nil {
			f = math.Inf(-1)
		}
		fit[k] = f
	})
}

// each runs f(worker, i) for every i in [0, n), fanning out across the
// pool's evaluators. Workers pull indices from a shared atomic counter;
// f must write results only at index-addressed locations.
//
// A panic in f on a worker goroutine would be unrecoverable by the
// caller (killing the process), so workers recover it and each re-
// panics the first one — value and worker stack intact, as a
// *workerPanic — on the calling goroutine once the batch drains, where
// the run loop's guard converts it into a MapperPanicError. Remaining
// workers finish their indices normally; fitness slots past the panic
// are simply abandoned along with the failed run.
func (pl *Pool) each(n int, f func(ev *Evaluator, i int)) {
	w := len(pl.evs)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(pl.evs[0], i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var pmu sync.Mutex
	var wp *workerPanic
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(ev *Evaluator) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stack := debug.Stack()
					pmu.Lock()
					if wp == nil {
						wp = &workerPanic{value: r, stack: stack}
					}
					pmu.Unlock()
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				f(ev, i)
			}
		}(pl.evs[k])
	}
	wg.Wait()
	if wp != nil {
		panic(wp)
	}
}

// DefaultBudget is the evaluation's sampling budget (§VI-B).
const DefaultBudget = 10000

// Run drives the optimization loop until the sampling budget is
// exhausted (§IV-E). Candidates that fail validation count against the
// budget with -Inf fitness, mirroring constraint-violating samples.
//
// Each Ask batch is evaluated by a worker pool (Options.Workers), but
// the Result is bit-identical for every worker count: evaluation is a
// pure function of the genome, fitness lands at its batch index, and the
// best/curve bookkeeping below replays the batch strictly in Ask order —
// exactly the sequence the serial loop would have produced.
//
// Options.Cache additionally routes batches through the schedule-
// fingerprint FitnessCache, which preserves the same contract: cached
// and deduplicated fitness values are the ones the pool would have
// recomputed, so cache on/off is also bit-identical.
//
// For optimizers that implement both EliteSelector and ReaskTracker a
// pruning pass runs ahead of evaluation (see pruner): verbatim elite
// re-asks reuse the previous batch's exact fitness, with or without the
// cache, and genomes whose roofline fitness bound already misses the
// elite floor get the bound instead of being decoded and simulated. That too is bit-identical: a
// value below both the floor and the best so far can move neither
// selection nor the convergence curve.
func Run(p *Problem, opt Optimizer, o Options, seed int64) (Result, error) {
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := guard(opt.Name(), "Init", func() error {
		return opt.Init(p, rng.New(seed))
	}); err != nil {
		return Result{}, fmt.Errorf("m3e: init %s: %w", opt.Name(), err)
	}
	pool := o.Pool
	if pool == nil {
		pool = NewPool(p, o.Workers)
	}
	if pb, ok := opt.(PoolBreeder); ok {
		pb.SetBreeder(pool)
	}
	var cache *FitnessCache
	switch {
	case o.Scratch != nil:
		cache = o.Scratch
		cache.Rebind()
	case o.Store != nil:
		cache = NewFitnessCacheWith(p, o.Store)
	case o.Cache:
		cache = NewFitnessCache(p, o.CacheSize)
	}
	if o.EffectiveBudget && cache == nil {
		return Result{}, fmt.Errorf("m3e: EffectiveBudget requires the fitness cache (set Cache or Store)")
	}
	res := Result{Method: opt.Name(), BestFitness: math.Inf(-1)}
	res.Curve = make([]float64, 0, o.Budget)
	if cache != nil {
		cache.phases = &res.Phases
		// Drop the per-run hook on every exit path (including error
		// returns): a leased cache may sit on the engine's free-list
		// indefinitely, and the pointer would otherwise pin the finished
		// run's Result (curve, samples) in memory.
		defer func() { cache.phases = nil }()
	}
	var pn *pruner
	es, isES := opt.(EliteSelector)
	rt, isRT := opt.(ReaskTracker)
	if isES && isRT && !o.EffectiveBudget {
		// The bound constants are memoized on the first worker's simulator,
		// so a leased pool carries them warm across runs.
		pn = &pruner{p: p, bounds: pool.evs[0].sim.Bounds(p.Table), es: es, rt: rt, cached: cache != nil}
	}
	stats := func() CacheStats {
		var st CacheStats
		if cache != nil {
			st = cache.Stats()
		}
		if pn != nil {
			st.Add(pn.stats)
		}
		return st
	}
	var fit []float64 // reused across batches
	generation := 0
	for res.Samples < o.Budget {
		// Cancellation is observed only here, at a generation boundary, so
		// an aborted run's best-so-far state equals the prefix of a full
		// run after the same number of generations — never a half-applied
		// batch — and cancel latency is bounded by one generation's cost.
		if ctx.Err() != nil {
			res.Aborted = true
			break
		}
		if o.EffectiveBudget && res.Asked >= EffectiveBudgetStretchCap*o.Budget {
			break
		}
		tAsk := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		var batch []encoding.Genome
		if err := guard(opt.Name(), "Ask", func() error {
			// The injectable failure point fires inside the guard, so a
			// panicking fault hook exercises exactly the recovery path a
			// misbehaving mapper would.
			if err := fault.Hit(fault.M3EAsk); err != nil {
				return err
			}
			batch = opt.Ask()
			return nil
		}); err != nil {
			return res, err
		}
		res.Phases.AskNs += time.Since(tAsk).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		if len(batch) == 0 {
			return Result{}, fmt.Errorf("m3e: %s returned an empty batch", opt.Name())
		}
		// Truncate to the remaining budget. Under EffectiveBudget the
		// charge per genome is at most one, so the truncated batch still
		// can never overshoot the budget.
		if left := o.Budget - res.Samples; len(batch) > left {
			batch = batch[:left]
		}
		if cap(fit) < len(batch) {
			fit = make([]float64, len(batch))
		}
		fit = fit[:len(batch)]
		if err := guard(opt.Name(), "Evaluate", func() error {
			var pre []uint8 // slot states from the pruning pass, nil without one
			if pn != nil {
				tBound := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
				pre = pn.prune(pool, batch, fit, res.BestFitness)
				res.Phases.BoundNs += time.Since(tBound).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
			}
			if cache != nil {
				cache.evaluate(pool, batch, fit, pre) // splits fingerprint/simulate into res.Phases itself
			} else {
				tSim := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
				pool.evaluate(batch, pre, fit)
				res.Phases.SimulateNs += time.Since(tSim).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
			}
			if pn != nil {
				pn.commit(fit)
			}
			return nil
		}); err != nil {
			return res, err
		}
		for i, g := range batch {
			res.Asked++
			charged := true
			if o.EffectiveBudget {
				charged = cache.ChargedAt(i)
			}
			if charged {
				res.Samples++
			}
			if fit[i] > res.BestFitness {
				res.BestFitness = fit[i]
				res.Best = g.Clone()
			}
			if charged {
				res.Curve = append(res.Curve, res.BestFitness)
			}
			if o.RecordSamples {
				res.Explored = append(res.Explored, g.ToVector(p.NumAccels()))
			}
		}
		tTell := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		if err := guard(opt.Name(), "Tell", func() error {
			opt.Tell(batch, fit)
			return nil
		}); err != nil {
			return res, err
		}
		res.Phases.TellNs += time.Since(tTell).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		generation++
		res.Phases.Generations = generation
		if o.Observer != nil {
			pr := Progress{
				Generation:  generation,
				Samples:     res.Samples,
				Asked:       res.Asked,
				Budget:      o.Budget,
				BestFitness: res.BestFitness,
				Cache:       stats(),
			}
			o.Observer(pr)
		}
	}
	res.Cache = stats()
	return res, nil
}

// BestMapping decodes the best individual found.
func (r Result) BestMapping(nAccels int) sim.Mapping {
	return encoding.Decode(r.Best, nAccels)
}
