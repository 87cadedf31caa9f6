package m3e

import (
	"math"
	"testing"

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
// bound's walk and ValidPrio rather than by Validate, so this pins the
// two routes to one verdict.
func TestPruneScoresInvalidGenomes(t *testing.T) {
	const n, k = 12, 2
	prob := testProblem(t, models.Mix, n, platform.S2(), Throughput)
	pool := NewPool(prob, 1)
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
		pr := &pruner{p: prob, bounds: pool.evs[0].sim.Bounds(prob.Table), es: sel, rt: sel,
			prevFit: []float64{2, 1}}
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

// BenchmarkPrune times one pruning pass over a paper-scale generation:
// 100 genomes of a 100-job Mix group on S2, ten of them re-asked
// elites, so the pass validates every genome and prices the roofline
// bound of the other ninety. The re-asks' floor (0) prunes none of
// them, so all ninety are also decoded and bracketed in virtual time:
// the pass's most expensive case.
func BenchmarkPrune(b *testing.B) {
	const n, k = 100, 10
	prob := testProblem(b, models.Mix, n, platform.S2().WithBW(16), Throughput)
	pool := NewPool(prob, 1)
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
	pr := &pruner{p: prob, bounds: pool.evs[0].sim.Bounds(prob.Table), es: sel, rt: sel}
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
