package m3e

import (
	"math"
	"slices"
	"testing"
	"time"

	"magma/internal/encoding"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/rng"
)

// fixedSelection is the EliteSelector and ReaskTracker of a batch whose
// first k slots re-ask the previous batch's first k genomes.
type fixedSelection struct {
	k      int
	reasks []int
}

func (f fixedSelection) EliteCount(int) int { return f.k }
func (f fixedSelection) Reasks() []int      { return f.reasks }

// TestPruneScoresInvalidGenomes: whether or not a batch is priced, the
// pass rejects exactly the genomes Genome.Validate rejects, scoring them
// -Inf and counting them Invalid. A priced genome is validated by the
// roofline's walk (sim.Bounds.GenomeRoofline) rather than by Validate,
// so this pins the two routes to one verdict.
func TestPruneScoresInvalidGenomes(t *testing.T) {
	const n, k = 12, 2
	prob := testProblem(t, models.Mix, n, platform.S2(), Throughput)
	pool := NewPool(prob)
	st := rng.New(8)
	edits := []func(g *encoding.Genome){
		func(g *encoding.Genome) { g.Accel[3] = prob.NumAccels() },
		func(g *encoding.Genome) { g.Accel[n-1] = -1 },
		func(g *encoding.Genome) { g.Prio[0] = math.NaN() },
		func(g *encoding.Genome) { g.Prio[5] = 1 },
		func(g *encoding.Genome) { g.Prio[7] = -0.25 },
		func(g *encoding.Genome) { g.Prio = g.Prio[:n-1] },
		func(g *encoding.Genome) { g.Accel = g.Accel[:n-1] },
		func(g *encoding.Genome) { g.Accel = append(g.Accel, 0) },
		func(g *encoding.Genome) { g.Prio[2] = math.Copysign(0, -1) }, // -0 is a valid priority
	}
	batch := make([]encoding.Genome, k+len(edits))
	for i := range batch {
		batch[i] = encoding.Random(n, prob.NumAccels(), st)
		if i >= k {
			edits[i-k](&batch[i])
		}
	}
	for _, priced := range []bool{false, true} {
		sel := fixedSelection{k: k, reasks: []int{-1, -1}}
		if priced {
			sel.reasks = []int{0, 1}
		}
		pr := newPruner(prob, pool.ev.sim.Bounds(prob.Table), sel, sel, false)
		pr.prevFit = []float64{2, 1}
		fit := make([]float64, len(batch))
		state := pr.prune(pool, batch, fit, 2)
		var invalid uint64
		for i, g := range batch {
			want := g.Validate(n, prob.NumAccels()) != nil
			if got := state[i] == slotInvalid; got != want {
				t.Errorf("priced=%v genome %d: invalid=%v, Validate says %v", priced, i, got, want)
			}
			if want {
				invalid++
				if !math.IsInf(fit[i], -1) {
					t.Errorf("priced=%v genome %d: invalid genome scored %g, want -Inf", priced, i, fit[i])
				}
			}
		}
		if pr.stats.Invalid != invalid {
			t.Errorf("priced=%v: Invalid = %d, want %d", priced, pr.stats.Invalid, invalid)
		}
		if priced && pr.stats.BoundChecked == 0 {
			t.Errorf("priced batch checked no bound")
		}
	}
}

// TestCachedDuplicatesShareSettlement: behind the cache the
// virtual-time stage walks one representative per in-batch duplicate
// class, and every copy must end in its representative's state — a
// copy of a settled genome left open would be committed as an exact
// parent value. The batch holds two re-asks at the median exact
// fitness, so the stage settles some classes and leaves others open.
func TestCachedDuplicatesShareSettlement(t *testing.T) {
	const n, pairs = 16, 30
	prob := testProblem(t, models.Mix, n, platform.S2().WithBW(16), Throughput)
	pool := NewPool(prob)
	st := rng.New(6)
	batch := make([]encoding.Genome, 2, 2+2*pairs)
	var exact []float64
	for i := 0; i < pairs; i++ {
		g := encoding.Random(n, prob.NumAccels(), st)
		f, err := prob.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		exact = append(exact, f)
		batch = append(batch, g, g.Clone())
	}
	batch[0], batch[1] = batch[2], batch[4]
	slices.Sort(exact)
	median := exact[pairs/2]
	sel := fixedSelection{k: 2, reasks: []int{0, 1}}
	pr := newPruner(prob, pool.ev.sim.Bounds(prob.Table), sel, sel, true)
	pr.prevFit = []float64{median, median}
	cache := pool.cacheFor(prob, NewCacheStore(0))
	fit := make([]float64, len(batch))
	state := pr.prune(pool, batch, fit, math.Inf(1))
	cache.evaluate(pool, batch, fit, state, pr, time.Time{})
	pr.commit(fit)
	var settled, open int
	for i := 2; i < len(batch); i += 2 {
		if pr.state[i] != pr.state[i+1] || math.Float64bits(fit[i]) != math.Float64bits(fit[i+1]) {
			t.Fatalf("genomes %d and %d share a schedule but ended in states %d and %d, fitness %v and %v",
				i, i+1, pr.state[i], pr.state[i+1], fit[i], fit[i+1])
		}
		exactCopy := !math.IsNaN(pr.prevFit[i+1])
		switch pr.state[i] {
		case slotFiltered:
			settled++
			if exactCopy {
				t.Errorf("genome %d: the copy of a settled genome was committed as exact parent value %v", i+1, pr.prevFit[i+1])
			}
		case slotOpen:
			open++
			if !exactCopy {
				t.Errorf("genome %d: the copy of a simulated genome lost its exact value", i+1)
			}
		}
	}
	if settled == 0 || open == 0 {
		t.Fatalf("the stage settled %d classes and left %d open; the batch must exercise both", settled, open)
	}
}

// BenchmarkPrune times one pruning pass over a paper-scale generation:
// 100 genomes of a 100-job Mix group on S2, ten of them re-asked
// elites, so the pass validates every genome and prices the roofline
// bound of the other ninety. The re-asks' floor (0) prunes none of
// them, so all ninety reach the virtual-time loop, whose running floor
// rises from 0 to the lower ends of the first brackets it finishes.
func BenchmarkPrune(b *testing.B) {
	const n, k = 100, 10
	prob := testProblem(b, models.Mix, n, platform.S2().WithBW(16), Throughput)
	pool := NewPool(prob)
	st := rng.New(4)
	batch := make([]encoding.Genome, n)
	sel := fixedSelection{k: k, reasks: make([]int, n)}
	for i := range batch {
		batch[i] = encoding.Random(prob.NumJobs(), prob.NumAccels(), st)
		sel.reasks[i] = -1
		if i < k {
			sel.reasks[i] = i
		}
	}
	pr := newPruner(prob, pool.ev.sim.Bounds(prob.Table), sel, sel, false)
	pr.prevFit = make([]float64, n)
	for i := range pr.prevFit {
		pr.prevFit[i] = float64(i)
	}
	fit := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.prune(pool, batch, fit, float64(n))
	}
}
