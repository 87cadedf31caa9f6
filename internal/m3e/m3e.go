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
	ev := Evaluator{p: p, sim: sim.NewSimulator(sim.Options{})}
	return ev.Evaluate(g)
}

// Evaluator is the reusable genome→fitness pipeline: it owns a decode
// scratch Mapping and a sim.Simulator, so repeated Evaluate calls on the
// same problem perform zero steady-state heap allocations. Evaluators
// are not safe for concurrent use; each Run builds its own and drops it
// when the run ends.
type Evaluator struct {
	p       *Problem
	sim     *sim.Simulator
	m       sim.Mapping        // decode scratch, also of the pruning pass's loop
	cycles  []float64          // per-core scratch of sim.Bounds.GenomeRoofline
	virtual sim.VirtualScratch // scratch of sim.Bounds.Virtual
}

// NewEvaluator builds an evaluator bound to the problem.
func (p *Problem) NewEvaluator() *Evaluator {
	return &Evaluator{p: p, sim: sim.NewSimulator(sim.Options{}),
		cycles: make([]float64, p.NumAccels())}
}

// Evaluate decodes and simulates one individual, returning its fitness.
// Equal genomes produce bit-identical fitness regardless of which
// Evaluator runs them.
func (e *Evaluator) Evaluate(g encoding.Genome) (float64, error) {
	if err := g.Validate(e.p.NumJobs(), e.p.NumAccels()); err != nil {
		return 0, err
	}
	encoding.DecodeInto(g, e.p.NumAccels(), &e.m)
	return e.EvaluateMapping(&e.m)
}

// EvaluateMapping scores an already-decoded mapping without re-decoding
// or re-validating a genome. The pruning pass uses it to simulate each
// genome straight from the mapping it decoded, so a simulated genome
// still pays for exactly one decode.
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

// EvaluateBatch scores batch[i] into fit[i] for every i and returns how
// many genomes it simulated and how many failed validation. Invalid
// genomes score -Inf, mirroring constraint-violating samples.
func (e *Evaluator) EvaluateBatch(batch []encoding.Genome, fit []float64) (simulated, invalid int) {
	nJobs, nAccels := e.p.NumJobs(), e.p.NumAccels()
	for i, g := range batch {
		if g.Validate(nJobs, nAccels) != nil {
			fit[i] = math.Inf(-1)
			invalid++
			continue
		}
		encoding.DecodeInto(g, nAccels, &e.m)
		f, err := e.EvaluateMapping(&e.m)
		if err != nil {
			f = math.Inf(-1)
		}
		fit[i] = f
		simulated++
	}
	return simulated, invalid
}

// simulate scores the decoded schedule of batch index idx[k], which
// mapping(k) returns, into fit[idx[k]] for every k.
func (e *Evaluator) simulate(idx []int, fit []float64, mapping func(k int) *sim.Mapping) {
	for k, i := range idx {
		f, err := e.EvaluateMapping(mapping(k))
		if err != nil {
			f = math.Inf(-1)
		}
		fit[i] = f
	}
}

// EvaluateMapping scores an already-decoded mapping (used for the
// manual-heuristic baselines, which bypass the encoding).
func (p *Problem) EvaluateMapping(m sim.Mapping) (float64, sim.Result, error) {
	res, err := sim.Run(p.Table, m, sim.Options{})
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
	// splittable ones derive per-(generation, slot) sub-streams, so each
	// child's draws depend on its slot alone.
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

// ReaskTracker is implemented by optimizers that re-ask schedules of
// the previous batch (MAGMA and stdGA re-submit their elites every
// generation, and MAGMA names the bred children that repeat a parent's
// schedule). Reasks is re-read after each Ask: entry i is the index in
// the previously told batch of a genome that slot i decodes to the
// identical schedule as (encoding.SameSchedule; a bit-identical copy
// qualifies), or -1 when the optimizer claims no such genome. Fitness
// is a pure function of the decoded schedule, so the runner reuses that
// genome's exact fitness for the slot without changing any result. It
// returns nil before the first Tell. Indices beyond the evaluated
// prefix of the previous batch are ignored.
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
// elite re-asks); everyone else is evaluated in full.
type EliteSelector interface {
	EliteCount(told int) int
}

// Result summarizes one search run.
type Result struct {
	Method      string
	Best        encoding.Genome
	BestFitness float64
	Samples     int         // budget units consumed: one per genome processed
	Asked       int         // genomes processed (always == Samples)
	Curve       Curve       // best-so-far fitness after each consumed sample
	Explored    [][]float64 // sampled vectors (only when RecordSamples)
	Cache       CacheStats  // hit/miss and pruning counters (see CacheStats)
	// Phases breaks the run's wall-clock down per generation phase
	// (ask / bound / fingerprint / simulate / tell), so callers can see
	// where a generation's time goes. Always recorded; the cost is one
	// clock read per phase boundary.
	Phases PhaseTimings
	// Aborted reports that the run's context was cancelled (deadline or
	// explicit cancel) before the budget was exhausted. The Result is
	// still valid: Best/Curve hold the best-so-far state at the last
	// completed generation — exactly the prefix a full run would have
	// produced — so callers can use the partial schedule directly.
	Aborted bool
}

// Curve is a search's best-so-far fitness after each consumed sample,
// kept as runs of N consecutive samples of value V. The curve steps only
// when the search improves, so thousands of samples keep a few dozen
// runs. A curve that Run records has no empty run, and no two adjacent
// runs whose values have equal bits.
type Curve []struct {
	V float64
	N int
}

// add appends one sample of value v. It extends the last run when v's
// bits equal that run's value, so a NaN sample and a -0 stay themselves.
func (c Curve) add(v float64) Curve {
	if n := len(c); n > 0 && math.Float64bits(c[n-1].V) == math.Float64bits(v) {
		c[n-1].N++
		return c
	}
	return append(c, Curve{{V: v, N: 1}}...)
}

// Len returns the number of samples the curve covers.
func (c Curve) Len() int {
	n := 0
	for _, r := range c {
		n += r.N
	}
	return n
}

// At returns the value after sample i, counted from 0. An index below 0
// reads the first sample and one past the end the last, so a checkpoint
// beyond a short run reads where the run stopped. At panics on an empty
// curve.
func (c Curve) At(i int) float64 {
	for _, r := range c {
		if i < r.N {
			return r.V
		}
		i -= r.N
	}
	return c[len(c)-1].V
}

// PhaseTimings accumulates wall-clock per runner phase across a run.
// The runner reads the clock once at each phase boundary, and each
// generation's phases follow one another with no gap, from the end of
// the previous generation, so the phases tile the run's loop: their sum
// never exceeds the run's wall time. Ask is candidate generation (with
// the generation-boundary checks), Bound the runner's pruning pass (see
// BoundNs), Simulate the evaluation of the batch with the bracket
// check, and Tell the runner's best-so-far bookkeeping, the optimizer's
// selection and breeding, and the Observer call. FingerprintNs always
// reads 0; it stays for wire and benchmark compatibility.
type PhaseTimings struct {
	AskNs         int64 `json:"ask_ns"`
	FingerprintNs int64 `json:"fingerprint_ns"`
	// BoundNs is the runner's pruning pass (optimizers it prunes only):
	// validation, the genome roofline bounds, and the virtual-time loop
	// that settles or walks the survivors, with the decode of each one it
	// walks. When that loop does not run (no floor, or a bandwidth-free
	// table), the survivors are decoded in SimulateNs.
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
	// Asked is the number of genomes processed so far; every genome is
	// one sample, so it always equals Samples.
	Asked int
	// Budget is the run's total sampling budget.
	Budget int
	// BestFitness is the best fitness found so far.
	BestFitness float64
	// Cache holds the evaluation and pruning counters so far.
	Cache CacheStats
}

// Options tunes the runner.
type Options struct {
	Budget        int  // sampling budget (default 10000, §VI-B)
	RecordSamples bool // keep every sampled vector (Fig. 10 PCA)
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
	// narrow replaces every virtual-time bracket the pruning pass prices
	// (tests only; see pruner.narrow).
	narrow func(lo, hi float64) (float64, float64)
}

// DefaultBudget is the evaluation's sampling budget (§VI-B).
const DefaultBudget = 10000

// Run drives the optimization loop until the sampling budget is
// exhausted (§IV-E). Candidates that fail validation count against the
// budget with -Inf fitness, mirroring constraint-violating samples.
//
// The run executes on the caller's goroutine, on an Evaluator it builds
// for itself and drops when it returns. Evaluation is a pure function of
// the genome, fitness lands at its batch index, and the
// best/curve bookkeeping below replays the batch strictly in Ask order.
//
// For optimizers that implement both EliteSelector and ReaskTracker a
// pruning pass runs ahead of evaluation (see pruner): elite re-asks
// reuse the previous batch's exact fitness; genomes whose roofline
// fitness bound already misses the elite floor get the bound instead of
// being decoded and simulated; and the
// survivors that a best-first virtual-time loop proves below the floor
// it raises as it goes get their proven top instead of being
// simulated. That too is
// bit-identical: a value below both the floor and the best so far can
// move neither selection nor the convergence curve. Every simulated
// genome the pass priced is checked to score inside its bracket; a
// miss ends the run with an error naming the generation and the batch
// index.
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
	ev := p.NewEvaluator()
	res := Result{Method: opt.Name(), BestFitness: math.Inf(-1)}
	var pn *pruner
	es, isES := opt.(EliteSelector)
	rt, isRT := opt.(ReaskTracker)
	if isES && isRT {
		pn = newPruner(p, sim.NewBounds(p.Table), es, rt)
		pn.narrow = o.narrow
	}
	// st is the run's counters: the pruning pass keeps them for the
	// optimizers it prunes, Run for every other.
	var plain CacheStats
	st := &plain
	if pn != nil {
		st = &pn.stats
	}
	var fit []float64 // reused across batches
	generation := 0
	// The clock is read once per phase boundary, and the end of one
	// generation's tell phase is the start of the next one's ask phase,
	// so the phases tile the loop.
	now := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	lap := func(ns *int64) {
		t := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		*ns += t.Sub(now).Nanoseconds()
		now = t
	}
	for res.Samples < o.Budget {
		// Cancellation is observed only here, at a generation boundary, so
		// an aborted run's best-so-far state equals the prefix of a full
		// run after the same number of generations — never a half-applied
		// batch — and cancel latency is bounded by one generation's cost.
		if ctx.Err() != nil {
			res.Aborted = true
			break
		}
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
		lap(&res.Phases.AskNs)
		if len(batch) == 0 {
			return Result{}, fmt.Errorf("m3e: %s returned an empty batch", opt.Name())
		}
		if left := o.Budget - res.Samples; len(batch) > left {
			batch = batch[:left]
		}
		if cap(fit) < len(batch) {
			fit = make([]float64, len(batch))
		}
		fit = fit[:len(batch)]
		if err := guard(opt.Name(), "Evaluate", func() error {
			if pn == nil {
				simulated, invalid := ev.EvaluateBatch(batch, fit)
				st.Misses += uint64(simulated)
				st.Invalid += uint64(invalid)
				lap(&res.Phases.SimulateNs)
				return nil
			}
			pn.prune(ev, batch, fit, res.BestFitness)
			lap(&res.Phases.BoundNs)
			pn.simulate(ev, batch, fit)
			lap(&res.Phases.SimulateNs)
			if err := pn.check(fit); err != nil {
				return fmt.Errorf("m3e: generation %d: %w", generation+1, err)
			}
			pn.commit(fit)
			return nil
		}); err != nil {
			return res, err
		}
		for i, g := range batch {
			res.Samples++
			res.Asked++
			if fit[i] > res.BestFitness {
				res.BestFitness = fit[i]
				res.Best = g.Clone()
			}
			res.Curve = res.Curve.add(res.BestFitness)
			if o.RecordSamples {
				res.Explored = append(res.Explored, g.ToVector(p.NumAccels()))
			}
		}
		if err := guard(opt.Name(), "Tell", func() error {
			opt.Tell(batch, fit)
			return nil
		}); err != nil {
			return res, err
		}
		generation++
		res.Phases.Generations = generation
		if o.Observer != nil {
			pr := Progress{
				Generation:  generation,
				Samples:     res.Samples,
				Asked:       res.Asked,
				Budget:      o.Budget,
				BestFitness: res.BestFitness,
				Cache:       *st,
			}
			o.Observer(pr)
		}
		lap(&res.Phases.TellNs)
	}
	res.Cache = *st
	return res, nil
}

// BestMapping decodes the best individual found.
func (r Result) BestMapping(nAccels int) sim.Mapping {
	return encoding.Decode(r.Best, nAccels)
}
