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
// the run root keyed by (generation, slot), so a child's draws depend
// on its slot alone (rng.Layout 2, DrawLayout). Tell also records
// which slots re-ask an elite's schedule (m3e.ReaskTracker): the elites
// it carries over verbatim, and every bred child that decodes to its
// dad's or its mom's schedule (encoding.SameSchedule). The runner
// answers those from the previous batch's exact fitness and prunes the
// other children against them.
//
// The package also houses the warm-start engine of §V-C.
package magma

import (
	"fmt"
	"math"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/rng"
)

// DrawLayout is the version of the order in which MAGMA's operators
// consume each child's random stream (v2: mutation draws the gaps
// between mutated genes, then each new value, instead of one Bernoulli
// draw per gene). The per-gene law is unchanged, but every seed's search
// differs between layouts, so bump it, with a note in DESIGN.md,
// whenever an operator's draws change; TestDrawLayoutGolden pins one
// bred child to it.
const DrawLayout = 2

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
// m3e.Seeder, m3e.ReaskTracker and m3e.EliteSelector.
type Optimizer struct {
	cfg     Config
	nJobs   int
	nAccels int
	root    rng.Stream // run root; every draw comes from an At(gen, slot) sub-stream
	gen     uint64     // completed breeding rounds (0 = initial population)
	pop     []encoding.Genome
	seeds   []encoding.Genome
	inited  bool
	breeds  uint64 // off-schedule breed() calls (tests, one-off callers)
	mutGaps geometric

	// Generation scratch, reused across Tell calls so breeding performs
	// no steady-state allocations: top holds the told indices of the
	// elites, best first, elites the cloned parents, spare the retired
	// population whose gene arrays the next generation is written into
	// (see Tell for the aliasing rules), and next the population being
	// bred (set only during Tell).
	top    []int
	elites []encoding.Genome
	spare  []encoding.Genome
	next   []encoding.Genome
	// reasks[i] is the index in the previously told batch of the elite
	// whose schedule pop[i] re-asks, or -1 (see Reasks); fromMom is
	// crossoverAccel's per-job transplant marker, written in full before
	// it is read, so every child shares it.
	reasks     []int
	fromMom    []bool
	haveReasks bool
}

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

// Reasks implements m3e.ReaskTracker: for each slot of the current
// population, the index in the previously told batch of the elite
// whose schedule it re-asks, or -1 for a bred child with a schedule of
// its own. The first nElite slots are the elites, copied verbatim; a
// bred child names its dad, or else its mom, when it decodes to that
// parent's schedule. Nil before the first Tell (the initial population
// has no parents).
func (o *Optimizer) Reasks() []int {
	if !o.haveReasks {
		return nil
	}
	return o.reasks
}

// EliteCount implements m3e.EliteSelector: Tell consumes the reported
// fitness only through the top-nElite ranked candidates (the elites it
// clones and breeds from), so values strictly below the nElite-th best
// can never influence the next population. Tell takes its nElite from
// here, so the two cannot drift apart.
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
	o.mutGaps = newGeometric(o.cfg.MutationRate)
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
// breeding touches them) — so Ask copies nothing.
func (o *Optimizer) Ask() []encoding.Genome { return o.pop }

// Tell implements m3e.Optimizer: it selects elites and breeds the next
// generation with the MAGMA operators.
//
// Memory discipline: the elites are picked by a top-nElite selection
// into a reused index slice (topK), deep-copied exactly once into
// reused scratch, and the children are written into the gene arrays of
// the population retired two generations ago (`spare`). That retired
// buffer is safe to overwrite — the runner clones anything it keeps
// (Result.Best) before Tell returns, and the current batch being told
// is a different slice. Steady-state, a whole generation breeds without
// heap allocation.
//
// Each child draws from its own (generation, slot) RNG stream and reads
// only the elites, so its genes depend on its slot alone.
func (o *Optimizer) Tell(genomes []encoding.Genome, fitness []float64) {
	nElite := o.EliteCount(len(genomes))
	o.top = topK(o.top, fitness[:len(genomes)], nElite)
	o.elites = growGenomes(o.elites, nElite, o.nJobs)
	for i, idx := range o.top {
		copyGenome(&o.elites[i], genomes[idx])
	}

	o.next = growGenomes(o.spare, o.cfg.Population, o.nJobs)
	o.growSlots(len(o.next))
	o.gen++
	for i, idx := range o.top {
		copyGenome(&o.next[i], o.elites[i])
		o.reasks[i] = idx // verbatim elite re-ask
	}
	for k := 0; k < len(o.next)-nElite; k++ {
		o.breedSlot(k)
	}
	o.haveReasks = true
	o.spare = o.pop
	o.pop, o.next = o.next, nil
}

// breedSlot breeds the k-th child of the generation Tell is building
// into slot len(top)+k of next. A child that decodes to its dad's or
// its mom's schedule is recorded as a re-ask of that elite, so the
// runner settles it with the elite's exact fitness instead of
// simulating it again.
func (o *Optimizer) breedSlot(k int) {
	nElite := len(o.top)
	slot := nElite + k
	st := o.root.At(o.gen, uint64(slot))
	dad := st.Intn(nElite)
	mom := st.Intn(nElite)
	child := o.next[slot]
	copyGenome(&child, o.elites[dad])
	o.cross(child, o.elites[mom], &st, o.fromMom)
	switch {
	case encoding.SameSchedule(child, o.elites[dad]):
		o.reasks[slot] = o.top[dad]
	case mom != dad && encoding.SameSchedule(child, o.elites[mom]):
		o.reasks[slot] = o.top[mom]
	default:
		o.reasks[slot] = -1
	}
}

// topK writes into top (reusing its array) the batch indices of the k
// best fitness values, best first, ties in batch order: exactly the
// first k of a stable sort by descending fitness, in O(n·k) time and
// without the sort. Fitness values are never NaN (invalid genomes score
// -Inf).
func topK(top []int, fitness []float64, k int) []int {
	top = top[:0]
	if k <= 0 {
		return top
	}
	for i, f := range fitness {
		if len(top) < k {
			top = append(top, i)
		} else if !(f > fitness[top[k-1]]) {
			continue // ties stay behind the earlier index
		}
		p := len(top) - 1
		for p > 0 && fitness[top[p-1]] < f {
			top[p] = top[p-1]
			p--
		}
		top[p] = i
	}
	return top
}

// growSlots sizes the variation state for n individuals.
func (o *Optimizer) growSlots(n int) {
	if cap(o.reasks) < n {
		o.reasks = make([]int, n)
	}
	o.reasks = o.reasks[:n]
	if cap(o.fromMom) < o.nJobs {
		o.fromMom = make([]bool, o.nJobs)
	}
	o.fromMom = o.fromMom[:o.nJobs]
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

// mutate re-rolls each gene independently with probability
// MutationRate. Rather than one Bernoulli draw per gene, it walks the
// 2·J gene indices — the accel section, then the priority section —
// drawing the gap to each next re-rolled gene (geometric.skip): the same
// per-gene law from about 2·J·p+1 draws instead of 2·J.
func (o *Optimizer) mutate(g encoding.Genome, st *rng.Stream) {
	n := len(g.Accel)
	for i := o.mutGaps.skip(st, 2*n); i < 2*n; i += 1 + o.mutGaps.skip(st, 2*n-i-1) {
		if i < n {
			g.Accel[i] = st.Intn(o.nAccels)
		} else {
			g.Prio[i-n] = st.Float64()
		}
	}
}

// geometric draws the number of failures before the next success in a
// run of independent Bernoulli(p) trials: Geometric(p), by inversion.
// scale is 1/ln(1−p), or 0 when p ≥ 1 and every trial succeeds.
type geometric struct{ scale float64 }

func newGeometric(p float64) geometric {
	if p >= 1 {
		return geometric{}
	}
	return geometric{scale: 1 / math.Log1p(-p)}
}

// skip draws ⌊ln(1−U)·scale⌋ from one uniform U, returning limit for any
// count of limit or more (the trials that remain). It draws nothing when
// limit is 0 or every trial succeeds.
func (g geometric) skip(st *rng.Stream, limit int) int {
	if limit <= 0 || g.scale == 0 {
		return 0
	}
	if x := math.Log(1-st.Float64()) * g.scale; x < float64(limit) {
		return int(x)
	}
	return limit
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
	_ m3e.ReaskTracker  = (*Optimizer)(nil)
	_ m3e.EliteSelector = (*Optimizer)(nil)
)
