package m3e

import (
	"fmt"
	"math"
	"slices"

	"magma/internal/encoding"
	"magma/internal/sim"
)

// Slot states the pruning pass assigns to the genomes of a batch.
const (
	slotOpen     uint8 = iota // valid, left for evaluation
	slotReask                 // re-ask of a parent's schedule: its exact fitness is reused
	slotInvalid               // failed validation: scored -Inf
	slotPruned                // roofline fitness bound below the elite floor: scored the bound
	slotFiltered              // virtual-time bracket top below the elite floor: scored the top
)

// pruner is the analytical-pruning pass Run puts ahead of evaluation
// for optimizers implementing EliteSelector and ReaskTracker (DESIGN.md
// "Analytical pruning"). Per batch it validates every genome and
// answers each re-ask with its parent's exact fitness. Then two stages
// settle genomes that cannot reach the elite floor:
//
//  1. Roofline. The floor is the k-th best re-ask value (k =
//     EliteCount) capped at the best so far; every other genome whose
//     roofline fitness bound falls below it gets that bound, undecoded.
//  2. Virtual time. Each survivor is decoded once and its fitness
//     bracketed from its virtual-time makespan (sim.Bounds.Virtual).
//     The floor rises to the k-th best of the re-ask values, the exact
//     store hits and the brackets' lower ends, capped at the best so
//     far; every survivor whose bracket top falls below it gets the top.
//
// Every value that sets a floor ends as an exact told value at or above
// it: a re-ask or store hit is exact, and a genome whose lower end
// reaches the floor has its top there too, so it is simulated, and its
// exact fitness is checked to lie inside its bracket (check). A settled
// genome's true fitness never exceeds its value, which is below the
// floor, so it can reach neither the top k nor the best so far:
// selection and the convergence curve are bit-identical to the
// unpruned run. A settled value is not a fitness, so it is never reused
// as a parent's exact value; a bracket top enters a CacheStore only as
// a top, apart from the fitness values (see CacheStore).
//
// The second stage runs only when the first set a floor and the table
// has a virtual-time makespan (no bandwidth-free entry). Without a
// cache the pass prices every survivor itself, decoding it into maps
// for the simulator; with one, the cache fingerprints and looks up the
// survivors first and prices only those the store holds neither a
// fitness nor a top for. Either way settle applies the raised floor.
type pruner struct {
	p      *Problem
	bounds *sim.Bounds
	es     EliteSelector
	rt     ReaskTracker
	cached bool // a FitnessCache evaluates the open slots and counts their Misses itself

	// narrow, when set, replaces every priced bracket (tests only: it
	// feeds the bracket check a deliberately wrong bracket).
	narrow func(lo, hi float64) (float64, float64)

	// stats holds the counts the cache does not keep: Invalid, the
	// re-ask Hits, pruned Misses and the bound counters, plus every Miss
	// when uncached.
	stats CacheStats

	state  []uint8       // batch index -> slot state
	lo, hi []float64     // batch index -> virtual-time fitness bracket, NaN where unpriced
	maps   []sim.Mapping // batch index -> decoded schedule of an open slot (uncached)
	open   []int         // batch indices left for the simulator (uncached)

	top     []float64 // values for the floor
	prevFit []float64 // previous batch's fitness, NaN where it was not exact

	// Set by prune for the batch: the elite count, the best so far, and
	// whether the virtual-time stage runs.
	k       int
	best    float64
	virtual bool
}

// prune runs the pass over batch, writing the fitness of every genome
// it settles into fit, and returns the slot states. best is the run's
// best fitness before this batch.
func (pr *pruner) prune(pool *Pool, batch []encoding.Genome, fit []float64, best float64) []uint8 {
	n := len(batch)
	pr.grow(n)
	nJobs, nAccels := pr.p.NumJobs(), pr.p.NumAccels()
	reasks := pr.rt.Reasks()
	pr.top = pr.top[:0]
	for i, g := range batch {
		pr.state[i] = slotOpen
		pr.lo[i], pr.hi[i] = math.NaN(), math.NaN()
		if i >= len(reasks) {
			continue
		}
		if p := reasks[i]; p >= 0 && p < len(pr.prevFit) && !math.IsNaN(pr.prevFit[p]) {
			// A re-ask is validated here, so only values that end as
			// told exact values set the floor.
			if g.Validate(nJobs, nAccels) != nil {
				pr.state[i] = slotInvalid
				continue
			}
			pr.state[i] = slotReask
			fit[i] = pr.prevFit[p]
			pr.top = append(pr.top, fit[i])
		}
	}
	pr.k, pr.best = pr.es.EliteCount(n), best
	// The roofline floor depends only on the re-asks, so it is known
	// before any bound is priced.
	floor := pr.floor()
	priced := !math.IsInf(floor, -1)
	pr.virtual = priced && pr.bounds.HasVirtual()
	pool.each(n, func(ev *Evaluator, i int) {
		if pr.state[i] != slotOpen {
			return
		}
		g := batch[i]
		if !priced {
			if g.Validate(nJobs, nAccels) != nil {
				pr.state[i] = slotInvalid
			} else if !pr.cached {
				encoding.DecodeInto(g, nAccels, &pr.maps[i])
			}
			return
		}
		// One walk over the accel genes both range-checks them and sums
		// the bound, so a priced genome is validated without a second.
		res, ok := pr.bounds.GenomeResult(ev.cycles, g.Accel)
		if !ok || !g.ValidPrio(nJobs) {
			pr.state[i] = slotInvalid
			return
		}
		if bf := pr.p.Fitness(res); bf < floor {
			pr.state[i] = slotPruned
			fit[i] = bf
			return
		}
		if pr.cached {
			return
		}
		encoding.DecodeInto(g, nAccels, &pr.maps[i])
		if pr.virtual {
			pr.lo[i], pr.hi[i] = pr.bracket(ev, &pr.maps[i])
		}
	})

	for i, s := range pr.state {
		switch s {
		case slotInvalid:
			fit[i] = math.Inf(-1)
			pr.stats.Invalid++
		case slotReask:
			pr.stats.Hits++
		case slotPruned:
			pr.stats.BoundChecked++
			pr.stats.BoundPruned++
			pr.stats.Misses++
		default:
			if priced {
				pr.stats.BoundChecked++
			}
			if !pr.cached {
				pr.stats.Misses++
			}
		}
	}
	if pr.cached {
		return pr.state
	}
	pr.open = pr.open[:0]
	for i, s := range pr.state {
		if s == slotOpen {
			pr.open = append(pr.open, i)
		}
	}
	if pr.virtual {
		pr.stats.VirtualPriced += uint64(len(pr.open))
		pr.settle(fit, pr.open, nil)
		open := pr.open[:0]
		for _, i := range pr.open {
			if pr.state[i] == slotFiltered {
				pr.stats.BoundPruned++
				pr.stats.VirtualPruned++
			} else {
				open = append(open, i)
			}
		}
		pr.open = open
	}
	return pr.state
}

// settle is the virtual-time stage, for both the uncached path and
// FitnessCache. cands are the batch indices whose brackets lo and hi
// are priced, one per batch slot (in-batch duplicates included); exact
// are the batch indices whose fit holds an exact value the re-asks did
// not supply (store hits). The floor rises to the k-th best of the
// re-asks, the exact values and the candidates' lower ends, capped at
// the best so far, and every candidate whose bracket top falls below it
// is marked slotFiltered and scored that top.
func (pr *pruner) settle(fit []float64, cands, exact []int) {
	for _, i := range exact {
		pr.top = append(pr.top, fit[i])
	}
	for _, i := range cands {
		// Skipping a -Inf lower end (a stored top's bracket) leaves the
		// floor as it is: the k-th best is above it, or -Inf, which
		// floor returns anyway when fewer than k values remain.
		if lo := pr.lo[i]; !math.IsInf(lo, -1) {
			pr.top = append(pr.top, lo)
		}
	}
	floor := pr.floor()
	for _, i := range cands {
		if pr.hi[i] < floor {
			pr.state[i] = slotFiltered
			fit[i] = pr.hi[i]
		}
	}
}

// floor returns the k-th best of the values in top capped at the best
// so far, or -Inf (nothing is below it: no pruning) when there are
// fewer than k. It reorders top.
func (pr *pruner) floor() float64 {
	if pr.k <= 0 || len(pr.top) < pr.k {
		return math.Inf(-1)
	}
	slices.Sort(pr.top)
	return math.Min(pr.top[len(pr.top)-pr.k], pr.best)
}

// bracket prices the fitness bracket of decoded schedule m: the
// fitness of Virtual's pessimistic Result is the low end, of its
// optimistic one the high end. Every objective's fitness falls as the
// makespan and the energy grow, so the bracket holds the exact fitness.
func (pr *pruner) bracket(ev *Evaluator, m *sim.Mapping) (lo, hi float64) {
	best, worst, _ := pr.bounds.Virtual(&ev.virtual, m)
	lo, hi = pr.p.Fitness(worst), pr.p.Fitness(best)
	if pr.narrow != nil {
		lo, hi = pr.narrow(lo, hi)
	}
	return lo, hi
}

// check confirms that every simulated slot priced in this batch scored
// inside its bracket. The floor argument rests on those brackets, so a
// miss is an error, never a silent prune.
func (pr *pruner) check(fit []float64) error {
	for i, f := range fit {
		if pr.state[i] != slotOpen || math.IsNaN(pr.hi[i]) {
			continue
		}
		if !(f >= pr.lo[i] && f <= pr.hi[i]) {
			return fmt.Errorf("batch index %d: simulated fitness %v lies outside its virtual-time bracket [%v, %v]",
				i, f, pr.lo[i], pr.hi[i])
		}
	}
	return nil
}

// commit records the evaluated batch's fitness as the next batch's
// parents: exact for re-asked and evaluated slots, NaN for settled and
// invalid ones.
func (pr *pruner) commit(fit []float64) {
	pr.prevFit = append(pr.prevFit[:0], fit...)
	for i, s := range pr.state[:len(fit)] {
		if s == slotPruned || s == slotFiltered || s == slotInvalid {
			pr.prevFit[i] = math.NaN()
		}
	}
}

// grow sizes the per-batch scratch for n genomes, keeping the decoded
// mappings' grown queues.
func (pr *pruner) grow(n int) {
	if cap(pr.state) < n {
		pr.state = make([]uint8, n)
		pr.lo, pr.hi = make([]float64, n), make([]float64, n)
		if !pr.cached {
			maps := make([]sim.Mapping, n)
			copy(maps, pr.maps)
			pr.maps = maps
		}
	}
	pr.state, pr.lo, pr.hi = pr.state[:n], pr.lo[:n], pr.hi[:n]
	if !pr.cached {
		pr.maps = pr.maps[:n]
	}
}
