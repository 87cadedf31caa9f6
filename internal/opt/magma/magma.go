// Package magma implements MAGMA, the Multi-Accelerator Genetic Mapping
// Algorithm (§V): a GA whose genetic operators are specialized to the
// structure of the multi-tenant mapping encoding.
//
// MAGMA inherits standard per-gene mutation and adds three crossover
// operators (Fig. 5):
//
//   - crossover-gen: genome-wise crossover. One genome type (accel
//     selection or job priority) is chosen, a pivot is sampled, and the
//     parents exchange that genome's tail. Perturbs one aspect of the
//     schedule while respecting the other (the dominant operator,
//     rate 0.9).
//   - crossover-rg: range crossover. A gene range is swapped across
//     *both* genomes simultaneously, preserving the cross-genome
//     dependency of each job's (placement, priority) pair (rate 0.05).
//   - crossover-accel: accelerator crossover. One sub-accelerator is
//     selected and Mom's entire job set for that core — placements and
//     priorities — is transplanted into the child; the child's previous
//     occupants of that core are randomly re-assigned for load balancing
//     (rate 0.05).
//
// Breeding is order-free: every child derives its own RNG stream from
// the run root keyed by (generation, slot), so Tell can fan the
// operator pipeline across the evaluation pool's workers (m3e.Breeder)
// with populations bit-identical at any worker count. Tell also records
// which slots re-ask an elite verbatim (m3e.ReaskTracker), so the
// runner answers those from the previous batch's exact fitness and
// prunes the bred children against them.
//
// The package also houses the warm-start engine of §V-C.
package magma

import (
	"fmt"
	"sort"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/rng"
)

// Config holds MAGMA's hyper-parameters (§V-B2, §V-B3). Zero values are
// replaced by the paper's defaults.
type Config struct {
	Population         int     // individuals per generation (default: group size)
	EliteRatio         float64 // survivors used as parents (default 0.1)
	MutationRate       float64 // per-gene mutation probability (default 0.05)
	CrossoverGenRate   float64 // genome-wise crossover rate (default 0.9)
	CrossoverRGRate    float64 // range crossover rate (default 0.05)
	CrossoverAccelRate float64 // accelerator crossover rate (default 0.05)

	// Ablation switches (Fig. 16). Mutation is the base operator and is
	// always on.
	DisableCrossoverGen   bool
	DisableCrossoverRG    bool
	DisableCrossoverAccel bool
}

func (c Config) withDefaults(groupSize int) Config {
	if c.Population <= 0 {
		c.Population = groupSize
	}
	if c.Population < 4 {
		c.Population = 4
	}
	if c.EliteRatio <= 0 {
		c.EliteRatio = 0.1
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.05
	}
	if c.CrossoverGenRate <= 0 {
		c.CrossoverGenRate = 0.9
	}
	if c.CrossoverRGRate <= 0 {
		c.CrossoverRGRate = 0.05
	}
	if c.CrossoverAccelRate <= 0 {
		c.CrossoverAccelRate = 0.05
	}
	return c
}

// Optimizer is the MAGMA search state. It implements m3e.Optimizer,
// m3e.Seeder, m3e.PoolBreeder, m3e.ReaskTracker and m3e.EliteSelector.
type Optimizer struct {
	cfg     Config
	nJobs   int
	nAccels int
	root    rng.Stream // run root; every draw comes from an At(gen, slot) sub-stream
	gen     uint64     // completed breeding rounds (0 = initial population)
	breeder m3e.Breeder
	pop     []encoding.Genome
	seeds   []encoding.Genome
	inited  bool
	breeds  uint64 // off-schedule breed() calls (tests, one-off callers)

	// Generation scratch, reused across Tell calls so breeding performs
	// no steady-state allocations: ranked is the sort buffer, elites the
	// cloned parents, spare the retired population whose gene arrays the
	// next generation is written into (see Tell for the aliasing rules).
	ranked []scored
	elites []encoding.Genome
	spare  []encoding.Genome
	// Per-slot variation state. reasks[i] is the index in the previously
	// told batch of the elite pop[i] re-asks verbatim, or -1 for a bred
	// child; fromMom[i] is slot i's crossoverAccel transplant marker
	// (per-job). Per-slot ownership is what makes concurrent breeding
	// race-free.
	reasks     []int
	fromMom    [][]bool
	haveReasks bool
}

// scored pairs an individual with its fitness and batch index for elite
// selection.
type scored struct {
	g   encoding.Genome
	f   float64
	idx int
}

// byFitness stable-sorts scored individuals best-first.
type byFitness []scored

func (s byFitness) Len() int           { return len(s) }
func (s byFitness) Less(i, j int) bool { return s[i].f > s[j].f }
func (s byFitness) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// New builds a MAGMA optimizer with the given configuration.
func New(cfg Config) *Optimizer { return &Optimizer{cfg: cfg} }

// Name implements m3e.Optimizer.
func (o *Optimizer) Name() string { return "MAGMA" }

// Seed implements m3e.Seeder: the genomes are injected into the initial
// population (warm start, §V-C).
func (o *Optimizer) Seed(genomes []encoding.Genome) {
	for _, g := range genomes {
		o.seeds = append(o.seeds, g.Clone())
	}
}

// SetBreeder implements m3e.PoolBreeder: Tell fans child breeding
// across b. Nil (the default) breeds serially; either way populations
// are bit-identical, because every child draws from its own
// (generation, slot) stream.
func (o *Optimizer) SetBreeder(b m3e.Breeder) { o.breeder = b }

// Reasks implements m3e.ReaskTracker: for each slot of the current
// population, the index in the previously told batch of the elite it
// re-asks verbatim, or -1 for a bred child. Nil before the first Tell
// (the initial population has no parents).
func (o *Optimizer) Reasks() []int {
	if !o.haveReasks {
		return nil
	}
	return o.reasks
}

// EliteCount implements m3e.EliteSelector: Tell consumes the reported
// fitness only through the top-nElite ranked candidates (the elites it
// clones and breeds from), so values strictly below the nElite-th best
// can never influence the next population. The formula replicates
// Tell's nElite exactly.
func (o *Optimizer) EliteCount(told int) int {
	nElite := int(float64(o.cfg.Population) * o.cfg.EliteRatio)
	if nElite < 2 {
		nElite = 2
	}
	if nElite > told {
		nElite = told
	}
	return nElite
}

// Init implements m3e.Optimizer.
func (o *Optimizer) Init(p *m3e.Problem, rng *rng.Stream) error {
	o.nJobs, o.nAccels = p.NumJobs(), p.NumAccels()
	o.cfg = o.cfg.withDefaults(o.nJobs)
	o.root = *rng
	o.gen = 0
	o.haveReasks = false
	o.pop = make([]encoding.Genome, o.cfg.Population)
	for i := range o.pop {
		if i < len(o.seeds) && len(o.seeds[i].Accel) == o.nJobs {
			g := o.seeds[i].Clone()
			if err := g.Validate(o.nJobs, o.nAccels); err != nil {
				return fmt.Errorf("magma: warm-start seed %d: %w", i, err)
			}
			o.pop[i] = g
			continue
		}
		st := o.root.At(0, uint64(i))
		o.pop[i] = encoding.Random(o.nJobs, o.nAccels, &st)
	}
	o.inited = true
	return nil
}

// Ask implements m3e.Optimizer: it returns the current generation. The
// genomes alias the optimizer's population — safe, because Tell never
// mutates told genomes in place (elites and children are cloned before
// breeding touches them) — which keeps the serial Ask step off the
// parallel evaluation engine's critical path.
func (o *Optimizer) Ask() []encoding.Genome { return o.pop }

// Tell implements m3e.Optimizer: it selects elites and breeds the next
// generation with the MAGMA operators.
//
// Memory discipline: the told genomes are ranked in place (headers
// only), the elites are deep-copied exactly once into reused scratch,
// and the children are written into the gene arrays of the population
// retired two generations ago (`spare`). That retired buffer is safe to
// overwrite — the runner clones anything it keeps (Result.Best) before
// Tell returns, and the current batch being told is a different slice.
// Steady-state, a whole generation breeds without heap allocation.
//
// Breeding runs per child slot on the breeder (the evaluation pool's
// workers) when one is set: each child reads only the shared elites and
// writes only its own slot's genome and scratch, drawing
// from its own (generation, slot) RNG stream — so the population is
// bit-identical in any breeding order, at any worker count.
func (o *Optimizer) Tell(genomes []encoding.Genome, fitness []float64) {
	o.ranked = o.ranked[:0]
	for i := range genomes {
		o.ranked = append(o.ranked, scored{genomes[i], fitness[i], i})
	}
	sort.Stable(byFitness(o.ranked))

	nElite := int(float64(o.cfg.Population) * o.cfg.EliteRatio)
	if nElite < 2 {
		nElite = 2
	}
	if nElite > len(o.ranked) {
		nElite = len(o.ranked)
	}
	o.elites = growGenomes(o.elites, nElite, o.nJobs)
	for i := 0; i < nElite; i++ {
		copyGenome(&o.elites[i], o.ranked[i].g)
	}

	next := growGenomes(o.spare, o.cfg.Population, o.nJobs)
	o.growSlots(len(next))
	o.gen++
	for i := 0; i < nElite; i++ {
		copyGenome(&next[i], o.elites[i])
		o.reasks[i] = o.ranked[i].idx // verbatim elite re-ask
	}
	breedSlot := func(k int) {
		slot := nElite + k
		st := o.root.At(o.gen, uint64(slot))
		dad := st.Intn(nElite)
		mom := st.Intn(nElite)
		copyGenome(&next[slot], o.elites[dad])
		o.cross(next[slot], o.elites[mom], &st, o.fromMom[slot])
		o.reasks[slot] = -1
	}
	if n := len(next) - nElite; o.breeder != nil {
		o.breeder.Breed(n, breedSlot)
	} else {
		for k := 0; k < n; k++ {
			breedSlot(k)
		}
	}
	o.haveReasks = true
	o.spare = o.pop
	o.pop = next
}

// growSlots sizes the per-slot variation state for n individuals.
func (o *Optimizer) growSlots(n int) {
	if cap(o.reasks) < n {
		o.reasks = make([]int, n)
		fromMom := make([][]bool, n)
		copy(fromMom, o.fromMom)
		o.fromMom = fromMom
	}
	o.reasks = o.reasks[:n]
	o.fromMom = o.fromMom[:n]
	for i := 0; i < n; i++ {
		if cap(o.fromMom[i]) < o.nJobs {
			o.fromMom[i] = make([]bool, o.nJobs)
		}
		o.fromMom[i] = o.fromMom[i][:o.nJobs]
	}
}

// growGenomes resizes a genome scratch slice to n individuals of nJobs
// genes each, reusing every already-grown gene array.
func growGenomes(s []encoding.Genome, n, nJobs int) []encoding.Genome {
	if cap(s) < n {
		grown := make([]encoding.Genome, n)
		copy(grown, s)
		s = grown
	}
	s = s[:n]
	for i := range s {
		if cap(s[i].Accel) < nJobs {
			s[i].Accel = make([]int, nJobs)
			s[i].Prio = make([]float64, nJobs)
		}
		s[i].Accel = s[i].Accel[:nJobs]
		s[i].Prio = s[i].Prio[:nJobs]
	}
	return s
}

// copyGenome copies src's genes into dst (dst must be pre-sized).
func copyGenome(dst *encoding.Genome, src encoding.Genome) {
	copy(dst.Accel, src.Accel)
	copy(dst.Prio, src.Prio)
}

// breed produces one child from two parents through the operator
// pipeline of Fig. 6 (allocating form, kept for tests and one-off
// callers; Tell writes children into reused scratch instead). Each call
// derives a fresh stream, advancing an internal label so repeated
// breeds differ.
func (o *Optimizer) breed(dad, mom encoding.Genome) encoding.Genome {
	o.breeds++
	st := o.root.At(^uint64(0), o.breeds) // off-schedule label: never collides with Tell's generations
	child := dad.Clone()
	o.cross(child, mom, &st, make([]bool, o.nJobs))
	return child
}

// cross applies the operator pipeline of Fig. 6 to child in place: the
// crossovers each fire at their own rate, then mutation always applies.
// Every draw comes from st (the child's own stream).
func (o *Optimizer) cross(child, mom encoding.Genome, st *rng.Stream, fromMom []bool) {
	if !o.cfg.DisableCrossoverGen && st.Float64() < o.cfg.CrossoverGenRate {
		o.crossoverGen(child, mom, st)
	}
	if !o.cfg.DisableCrossoverRG && st.Float64() < o.cfg.CrossoverRGRate {
		o.crossoverRG(child, mom, st)
	}
	if !o.cfg.DisableCrossoverAccel && st.Float64() < o.cfg.CrossoverAccelRate {
		o.crossoverAccel(child, mom, st, fromMom)
	}
	o.mutate(child, st)
}

// mutate re-rolls each gene independently with probability MutationRate.
func (o *Optimizer) mutate(g encoding.Genome, st *rng.Stream) {
	for i := range g.Accel {
		if st.Float64() < o.cfg.MutationRate {
			g.Accel[i] = st.Intn(o.nAccels)
		}
	}
	for i := range g.Prio {
		if st.Float64() < o.cfg.MutationRate {
			g.Prio[i] = st.Float64()
		}
	}
}

// crossoverGen exchanges one genome's segment on one side of a random
// pivot, leaving the other genome untouched (Fig. 5c). Either side is
// an equally valid genome-wise crossover; this one copies the smaller.
// The side is part of every seed's result: the pivot and genome-choice
// draws are the same either way, but the child is not, so switching
// sides would change every search's outcome for a given seed.
func (o *Optimizer) crossoverGen(child, mom encoding.Genome, st *rng.Stream) {
	pivot := st.Intn(o.nJobs + 1)
	lo, hi := pivot, o.nJobs
	if pivot < o.nJobs-pivot {
		lo, hi = 0, pivot
	}
	if st.Intn(2) == 0 {
		copy(child.Accel[lo:hi], mom.Accel[lo:hi])
	} else {
		copy(child.Prio[lo:hi], mom.Prio[lo:hi])
	}
}

// crossoverRG swaps a random range across both genomes simultaneously,
// preserving each job's (placement, priority) pairing (Fig. 5d).
func (o *Optimizer) crossoverRG(child, mom encoding.Genome, st *rng.Stream) {
	lo := st.Intn(o.nJobs)
	hi := lo + 1 + st.Intn(o.nJobs-lo)
	copy(child.Accel[lo:hi], mom.Accel[lo:hi])
	copy(child.Prio[lo:hi], mom.Prio[lo:hi])
}

// crossoverAccel transplants Mom's entire job set for one random core
// into the child (Fig. 5e). Jobs the child previously placed on that
// core — and that Mom does not — are randomly re-assigned to keep the
// load balanced.
func (o *Optimizer) crossoverAccel(child, mom encoding.Genome, st *rng.Stream, fromMom []bool) {
	a := st.Intn(o.nAccels)
	for j := 0; j < o.nJobs; j++ {
		fromMom[j] = mom.Accel[j] == a
		if fromMom[j] {
			child.Accel[j] = a
			child.Prio[j] = mom.Prio[j]
		}
	}
	for j := 0; j < o.nJobs; j++ {
		if child.Accel[j] == a && !fromMom[j] {
			child.Accel[j] = st.Intn(o.nAccels)
			child.Prio[j] = st.Float64()
		}
	}
}

var (
	_ m3e.Optimizer     = (*Optimizer)(nil)
	_ m3e.Seeder        = (*Optimizer)(nil)
	_ m3e.PoolBreeder   = (*Optimizer)(nil)
	_ m3e.ReaskTracker  = (*Optimizer)(nil)
	_ m3e.EliteSelector = (*Optimizer)(nil)
)
