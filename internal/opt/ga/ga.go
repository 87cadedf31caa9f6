// Package ga implements the standard genetic algorithm baseline of
// Table IV ("stdGA"): per-gene mutation at rate 0.1 and a single-pivot
// crossover over the whole concatenated gene string at rate 0.1, with
// elitist selection. Unlike MAGMA it is blind to the two-genome
// structure of the encoding: the pivot may split job placements from
// their priorities arbitrarily.
package ga

import (
	"sort"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/rng"
)

// Config holds stdGA's hyper-parameters (Table IV defaults when zero).
type Config struct {
	Population    int     // default 100
	EliteRatio    float64 // default 0.1
	MutationRate  float64 // default 0.1
	CrossoverRate float64 // default 0.1
}

func (c Config) withDefaults() Config {
	if c.Population <= 0 {
		c.Population = 100
	}
	if c.EliteRatio <= 0 {
		c.EliteRatio = 0.1
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.1
	}
	if c.CrossoverRate <= 0 {
		c.CrossoverRate = 0.1
	}
	return c
}

// Optimizer is the stdGA search state. It implements m3e.Optimizer,
// m3e.EliteSelector and m3e.ReaskTracker.
type Optimizer struct {
	cfg     Config
	nJobs   int
	nAccels int
	rng     *rng.Stream
	pop     []encoding.Genome
	// reasks[i] is the index in the last told batch of the elite pop[i]
	// re-asks verbatim, or -1 for a bred child; nil before the first Tell.
	reasks []int
}

// New builds a stdGA optimizer.
func New(cfg Config) *Optimizer { return &Optimizer{cfg: cfg.withDefaults()} }

// Name implements m3e.Optimizer.
func (o *Optimizer) Name() string { return "stdGA" }

// Init implements m3e.Optimizer.
func (o *Optimizer) Init(p *m3e.Problem, rng *rng.Stream) error {
	o.nJobs, o.nAccels = p.NumJobs(), p.NumAccels()
	o.rng = rng
	o.reasks = nil
	o.pop = make([]encoding.Genome, o.cfg.Population)
	for i := range o.pop {
		o.pop[i] = encoding.Random(o.nJobs, o.nAccels, rng)
	}
	return nil
}

// Ask implements m3e.Optimizer.
func (o *Optimizer) Ask() []encoding.Genome {
	out := make([]encoding.Genome, len(o.pop))
	for i, g := range o.pop {
		out[i] = g.Clone()
	}
	return out
}

// Tell implements m3e.Optimizer.
func (o *Optimizer) Tell(genomes []encoding.Genome, fitness []float64) {
	idx := make([]int, len(genomes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return fitness[idx[a]] > fitness[idx[b]] })

	nElite := int(float64(o.cfg.Population) * o.cfg.EliteRatio)
	if nElite < 2 {
		nElite = 2
	}
	if nElite > len(idx) {
		nElite = len(idx)
	}
	elites := make([]encoding.Genome, nElite)
	for i := 0; i < nElite; i++ {
		elites[i] = genomes[idx[i]].Clone()
	}
	next := make([]encoding.Genome, 0, o.cfg.Population)
	o.reasks = o.reasks[:0]
	for i, e := range elites {
		next = append(next, e.Clone())
		o.reasks = append(o.reasks, idx[i]) // verbatim re-ask
	}
	for len(next) < o.cfg.Population {
		child := elites[o.rng.Intn(nElite)].Clone()
		if o.rng.Float64() < o.cfg.CrossoverRate {
			mom := elites[o.rng.Intn(nElite)]
			o.crossover(child, mom)
		}
		o.mutate(child)
		next = append(next, child)
		o.reasks = append(o.reasks, -1)
	}
	o.pop = next
}

// Reasks implements m3e.ReaskTracker: the elites stdGA re-asks verbatim
// name their rank's index in the told batch; bred children are -1.
func (o *Optimizer) Reasks() []int { return o.reasks }

// EliteCount implements m3e.EliteSelector: Tell is purely elitist —
// fitness only picks the top-nElite parents, so values strictly below
// the nElite-th best never influence the next population. Replicates
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

// crossover performs a single-pivot exchange over the concatenated
// [accel ++ prio] gene string — structure-oblivious by design.
func (o *Optimizer) crossover(child, mom encoding.Genome) {
	pivot := o.rng.Intn(2*o.nJobs + 1)
	for i := pivot; i < 2*o.nJobs; i++ {
		if i < o.nJobs {
			child.Accel[i] = mom.Accel[i]
		} else {
			child.Prio[i-o.nJobs] = mom.Prio[i-o.nJobs]
		}
	}
}

func (o *Optimizer) mutate(g encoding.Genome) {
	for i := range g.Accel {
		if o.rng.Float64() < o.cfg.MutationRate {
			g.Accel[i] = o.rng.Intn(o.nAccels)
		}
	}
	for i := range g.Prio {
		if o.rng.Float64() < o.cfg.MutationRate {
			g.Prio[i] = o.rng.Float64()
		}
	}
}

var (
	_ m3e.Optimizer     = (*Optimizer)(nil)
	_ m3e.EliteSelector = (*Optimizer)(nil)
	_ m3e.ReaskTracker  = (*Optimizer)(nil)
)
