package m3e

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"magma/internal/encoding"
	"magma/internal/platform"
	"magma/internal/sim"
)

// Slot states the pruning pass assigns to the genomes of a batch.
const (
	slotOpen     uint8 = iota // valid, left for evaluation
	slotReask                 // re-ask of a parent's schedule: its exact fitness is reused
	slotInvalid               // failed validation: scored -Inf
	slotPruned                // roofline fitness bound below the elite floor: scored the bound
	slotFiltered              // settled by the virtual-time stage below its floor: scored the upper bound that did it
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
//  2. Virtual time (settle). One loop visits the survivors in
//     descending roofline bound against a running floor: the k-th best
//     of the re-ask values and the lower ends of the brackets finished
//     so far, capped at the best so far. A survivor whose roofline
//     bound is already below it gets the bound; any other is walked in
//     virtual time (sim.Bounds.VirtualCut), and the walk stops once its
//     optimistic fitness falls below the floor, which settles the
//     survivor on that partial top. A walk that finishes brackets the
//     fitness, and its lower end joins the floor. After the loop every
//     bracket whose top falls below the final floor is settled on that
//     top.
//
// Every value that sets a floor ends as an exact told value at or above
// it: a re-ask is exact, and a genome whose lower end reaches the final
// floor has its top there too, so it is simulated, and its exact
// fitness is checked to lie inside its bracket (check). A settled
// genome's true fitness never exceeds its value, which is below
// a running floor that never exceeds the final one, so it can reach
// neither the top k nor the best so far: selection and the convergence
// curve are bit-identical to the unpruned run. A value below the
// running floor could not have raised it, so the final floor is the one
// pricing every survivor in full would reach. A settled value is not a
// fitness, so it is never reused as a parent's exact value.
//
// The second stage runs only when the first set a floor and the table
// has a virtual-time makespan (no bandwidth-free entry). The loop
// decodes each survivor it walks into the walking evaluator's scratch
// mapping and keeps only the schedules still above the floor when their
// walk ends.
type pruner struct {
	p      *Problem
	bounds *sim.Bounds
	es     EliteSelector
	rt     ReaskTracker
	flops  float64

	// narrow, when set, replaces every finished bracket (tests only: it
	// feeds the bracket check a deliberately wrong bracket).
	narrow func(lo, hi float64) (float64, float64)

	// stats holds the run's counters (see CacheStats).
	stats CacheStats

	state  []uint8        // batch index -> slot state
	roof   []sim.Roofline // batch index -> roofline sums of a survivor
	bound  []float64      // batch index -> roofline fitness bound of a survivor
	lo, hi []float64      // batch index -> virtual-time fitness bracket, NaN where unpriced
	order  []int          // settle's candidates, best-first
	open   []int          // batch indices left for the simulator
	maps   []sim.Mapping  // maps[k] is the decoded schedule of open[k] (virtual stage)

	elite   []float64 // min-heap of the k best values offered for the floor
	prevFit []float64 // previous batch's fitness, NaN where it was not exact

	// Set by prune for the batch: the elite count, the best so far, and
	// whether the virtual-time stage runs.
	k       int
	best    float64
	virtual bool
}

// newPruner builds the pass for problem p over the bound constants b.
func newPruner(p *Problem, b *sim.Bounds, es EliteSelector, rt ReaskTracker) *pruner {
	return &pruner{p: p, bounds: b, es: es, rt: rt, flops: float64(p.Group.TotalFLOPs())}
}

// prune runs the pass over batch, writing the fitness of every genome
// it settles into fit. best is the run's best fitness before this
// batch. The genomes left open are those in pr.open, for simulate.
func (pr *pruner) prune(ev *Evaluator, batch []encoding.Genome, fit []float64, best float64) {
	n := len(batch)
	pr.grow(n)
	nJobs, nAccels := pr.p.NumJobs(), pr.p.NumAccels()
	reasks := pr.rt.Reasks()
	pr.k, pr.best = pr.es.EliteCount(n), best
	pr.elite = pr.elite[:0]
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
			pr.offer(fit[i])
		}
	}
	// The roofline floor depends only on the re-asks, so it is known
	// before any bound is priced.
	floor := pr.floor()
	priced := !math.IsInf(floor, -1)
	pr.virtual = priced && pr.bounds.HasVirtual()
	energy := pr.p.Objective == Energy || pr.p.Objective == EDP
	for i, g := range batch {
		if pr.state[i] != slotOpen {
			continue
		}
		if !priced {
			if g.Validate(nJobs, nAccels) != nil {
				pr.state[i] = slotInvalid
			}
			continue
		}
		// One walk over the genes both validates them and sums the
		// roofline, so a priced genome is never walked twice.
		r, ok := pr.bounds.GenomeRoofline(ev.cycles, g.Accel, g.Prio, energy)
		if !ok {
			pr.state[i] = slotInvalid
			continue
		}
		bf := pr.p.Fitness(pr.bounds.RooflineResult(r))
		if bf < floor {
			pr.state[i] = slotPruned
			fit[i] = bf
			continue
		}
		pr.roof[i], pr.bound[i] = r, bf
	}

	pr.open = pr.open[:0]
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
			pr.stats.Misses++
			pr.open = append(pr.open, i)
		}
	}
	if !pr.virtual {
		return
	}
	pr.stats.VirtualPriced += uint64(pr.settle(ev, batch, fit))
	for _, i := range pr.order {
		if pr.state[i] == slotFiltered {
			pr.stats.BoundPruned++
			pr.stats.VirtualPruned++
		}
	}
}

// simulate scores the genomes prune left open: from the
// schedules the virtual-time stage kept, or decoded afresh into the
// evaluator's scratch when the stage did not run.
func (pr *pruner) simulate(ev *Evaluator, batch []encoding.Genome, fit []float64) {
	if pr.virtual {
		ev.simulate(pr.open, fit, func(k int) *sim.Mapping { return &pr.maps[k] })
		return
	}
	nAccels, m := pr.p.NumAccels(), &ev.m
	ev.simulate(pr.open, fit, func(k int) *sim.Mapping {
		encoding.DecodeInto(batch[pr.open[k]], nAccels, m)
		return m
	})
}

// settle is the virtual-time stage, run on ev over the batch indices
// in pr.open, none priced yet. It decodes each walked genome from batch
// into ev's scratch mapping, and a walk that finishes with its top at
// or above the floor swaps that mapping into pr.maps, so at the end
// pr.maps[k] is the schedule of pr.open[k], the candidates left open,
// in the order visited. The floor the loop ends at stays in pr.elite
// (floor). settle returns the number of walks.
func (pr *pruner) settle(ev *Evaluator, batch []encoding.Genome, fit []float64) (walks int) {
	pr.order = append(pr.order[:0], pr.open...)
	slices.SortFunc(pr.order, func(a, b int) int {
		if c := cmp.Compare(pr.bound[b], pr.bound[a]); c != 0 {
			return c
		}
		return a - b
	})
	nAccels := pr.p.NumAccels()
	pr.open = pr.open[:0]
	floor := pr.floor()
	for _, i := range pr.order {
		if pr.bound[i] < floor {
			pr.state[i], fit[i] = slotFiltered, pr.bound[i]
			continue
		}
		encoding.DecodeInto(batch[i], nAccels, &ev.m)
		walks++
		lo, hi := pr.walk(ev, &ev.m, pr.roof[i], floor)
		if hi < floor {
			pr.state[i], fit[i] = slotFiltered, hi
			continue
		}
		pr.lo[i], pr.hi[i] = lo, hi
		pr.offer(lo)
		floor = pr.floor()
		k := len(pr.open)
		if k == len(pr.maps) {
			pr.maps = append(pr.maps, sim.Mapping{})
		}
		pr.maps[k], ev.m = ev.m, pr.maps[k]
		pr.open = append(pr.open, i)
	}
	for _, i := range pr.order {
		if pr.state[i] == slotOpen && pr.hi[i] < floor {
			pr.state[i], fit[i] = slotFiltered, pr.hi[i]
		}
	}
	open := pr.open[:0]
	for k, i := range pr.open {
		if pr.state[i] == slotOpen {
			pr.maps[len(open)], pr.maps[k] = pr.maps[k], pr.maps[len(open)]
			open = append(open, i)
		}
	}
	pr.open = open
	return walks
}

// walk prices the fitness bracket of decoded schedule m, whose roofline
// is r, walking it in virtual time only while its optimistic fitness
// can still reach floor. A walk that stops returns -Inf and the
// optimistic fitness at the stop, below floor; one that finishes
// returns the fitness of VirtualCut's pessimistic Result as the low end
// and of its optimistic one as the high end. Every objective's fitness
// falls as the makespan and the energy grow, so the bracket holds the
// exact fitness. A halted walk whose top rounding kept at the floor
// returns (-Inf, top]: still a bracket, with no lower end to offer.
func (pr *pruner) walk(ev *Evaluator, m *sim.Mapping, r sim.Roofline, floor float64) (lo, hi float64) {
	best, worst, halted := pr.bounds.VirtualCut(&ev.virtual, m, r, pr.cutSpan(floor, r))
	if hi = pr.p.Fitness(best); halted {
		return math.Inf(-1), hi
	}
	lo = pr.p.Fitness(worst)
	if pr.narrow != nil {
		lo, hi = pr.narrow(lo, hi)
	}
	return lo, hi
}

// cutSpan returns the optimistic makespan, in cycles, past which a
// schedule with roofline r scores below floor: Fitness of VirtualCut's
// optimistic Result inverted at a floor lowered by 1e-12 of its
// magnitude, so that rounding cannot stop a walk whose top still
// reaches floor. It is +Inf when no makespan is past it.
func (pr *pruner) cutSpan(floor float64, r sim.Roofline) float64 {
	f := floor - math.Abs(floor)*1e-12
	switch pr.p.Objective {
	case Latency:
		return -f
	case Energy:
		// -(base + perCycle·x) < f
		if base, perCycle := pr.bounds.EnergyLine(r); perCycle > 0 {
			return (-f - base) / perCycle
		}
	case EDP:
		// (base + perCycle·x)·x / ClockHz > -f
		base, perCycle := pr.bounds.EnergyLine(r)
		if d := -f * platform.ClockHz; d > 0 {
			if perCycle > 0 {
				return (math.Sqrt(base*base+4*perCycle*d) - base) / (2 * perCycle)
			}
			if base > 0 {
				return d / base
			}
		}
	default:
		// flops / (x / ClockHz) / 1e9 < f
		if f > 0 {
			return pr.flops * platform.ClockHz / (f * 1e9)
		}
	}
	return math.Inf(1)
}

// offer adds value v to the values the floor is the k-th best of,
// keeping only the k best in a min-heap.
func (pr *pruner) offer(v float64) {
	if pr.k <= 0 || math.IsInf(v, -1) {
		return
	}
	h := pr.elite
	if len(h) < pr.k {
		h = append(h, v)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if !(h[c] < h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
		pr.elite = h
		return
	}
	if !(v > h[0]) {
		return
	}
	h[0] = v
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		p = c
	}
}

// floor returns the k-th best of the values offered capped at the best
// so far, or -Inf (nothing is below it: no pruning) when fewer than k
// were offered.
func (pr *pruner) floor() float64 {
	if pr.k <= 0 || len(pr.elite) < pr.k {
		return math.Inf(-1)
	}
	return math.Min(pr.elite[0], pr.best)
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

// grow sizes the per-batch scratch for n genomes.
func (pr *pruner) grow(n int) {
	if cap(pr.state) < n {
		pr.state = make([]uint8, n)
		pr.roof = make([]sim.Roofline, n)
		pr.bound = make([]float64, n)
		pr.lo, pr.hi = make([]float64, n), make([]float64, n)
	}
	pr.state, pr.roof, pr.bound = pr.state[:n], pr.roof[:n], pr.bound[:n]
	pr.lo, pr.hi = pr.lo[:n], pr.hi[:n]
}
