package m3e

import (
	"math"
	"slices"

	"magma/internal/encoding"
	"magma/internal/sim"
)

// Slot states the pruning pass assigns to the genomes of a batch.
const (
	slotOpen    uint8 = iota // valid, left for evaluation
	slotReask                // verbatim re-ask: the parent's exact fitness is reused
	slotInvalid              // failed validation: scored -Inf
	slotPruned               // bound fitness below the elite floor: scored the bound
)

// pruner is the analytical-pruning pass Run puts ahead of decode for
// optimizers implementing EliteSelector and ReaskTracker (DESIGN.md
// "Analytical pruning"). Per batch it validates every genome, answers
// each verbatim re-ask with its parent's exact fitness, sets the
// floor to the k-th best of those values (k = EliteCount) capped at the
// best so far, and gives every other genome whose roofline fitness
// bound falls below the floor that bound instead of a simulation.
//
// At least k exact values of the batch sit at or above the floor and a
// genome's true fitness never exceeds its bound, so a pruned genome
// cannot reach the top k nor the best so far: selection and the
// convergence curve are bit-identical to the unpruned run. A bound is
// not a fitness, so pruned values never reach a CacheStore and are
// never reused as a parent's exact value.
type pruner struct {
	p      *Problem
	bounds *sim.Bounds
	es     EliteSelector
	rt     ReaskTracker
	cached bool // a FitnessCache evaluates the open slots and counts their Misses itself

	// stats holds the counts the cache does not keep: Invalid, the
	// re-ask Hits, pruned Misses and the bound counters, plus every Miss
	// when uncached.
	stats CacheStats

	state    []uint8   // batch index -> slot state
	boundFit []float64 // batch index -> fitness upper bound
	top      []float64 // reused exact values, for the floor
	prevFit  []float64 // previous batch's fitness, NaN where it was not exact
}

// prune runs the pass over batch, writing the fitness of every genome
// it settles into fit, and returns the slot states. best is the run's
// best fitness before this batch.
func (pr *pruner) prune(pool *Pool, batch []encoding.Genome, fit []float64, best float64) []uint8 {
	n := len(batch)
	if cap(pr.state) < n {
		pr.state, pr.boundFit = make([]uint8, n), make([]float64, n)
	}
	pr.state, pr.boundFit = pr.state[:n], pr.boundFit[:n]
	reasks := pr.rt.Reasks()
	reasked := 0
	for i := range batch {
		pr.state[i] = slotOpen
		if i < len(reasks) {
			if p := reasks[i]; p >= 0 && p < len(pr.prevFit) && !math.IsNaN(pr.prevFit[p]) {
				pr.state[i] = slotReask
				fit[i] = pr.prevFit[p]
				reasked++
			}
		}
	}
	// Bounds are worth pricing only when enough re-asks exist to set a
	// floor.
	k := pr.es.EliteCount(n)
	priced := k > 0 && reasked >= k
	nJobs, nAccels := pr.p.NumJobs(), pr.p.NumAccels()
	pool.each(n, func(ev *Evaluator, i int) {
		if batch[i].Validate(nJobs, nAccels) != nil {
			pr.state[i] = slotInvalid
		} else if priced && pr.state[i] == slotOpen {
			pr.boundFit[i] = pr.p.Fitness(pr.bounds.GenomeResult(ev.cycles, batch[i].Accel))
		}
	})

	pr.top = pr.top[:0]
	for i, s := range pr.state {
		if s == slotReask {
			pr.top = append(pr.top, fit[i])
		}
	}
	floor := math.Inf(-1) // nothing is below it: no pruning
	if k > 0 && len(pr.top) >= k {
		slices.Sort(pr.top)
		floor = math.Min(pr.top[len(pr.top)-k], best)
	}
	for i, s := range pr.state {
		switch {
		case s == slotInvalid:
			fit[i] = math.Inf(-1)
			pr.stats.Invalid++
		case s == slotReask:
			pr.stats.Hits++
		case !math.IsInf(floor, -1):
			pr.stats.BoundChecked++
			if pr.boundFit[i] < floor {
				pr.state[i] = slotPruned
				fit[i] = pr.boundFit[i]
				pr.stats.BoundPruned++
				pr.stats.Misses++
				continue
			}
			fallthrough
		default:
			if !pr.cached {
				pr.stats.Misses++
			}
		}
	}
	return pr.state
}

// commit records the evaluated batch's fitness as the next batch's
// parents: exact for re-asked and evaluated slots, NaN for pruned and
// invalid ones.
func (pr *pruner) commit(fit []float64) {
	pr.prevFit = append(pr.prevFit[:0], fit...)
	for i, s := range pr.state {
		if s == slotPruned || s == slotInvalid {
			pr.prevFit[i] = math.NaN()
		}
	}
}
