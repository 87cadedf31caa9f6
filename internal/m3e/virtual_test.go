package m3e_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/sim"
	"magma/internal/workload"
)

// TestVirtualBracketHoldsFitness lifts sim.Bounds.Virtual's bracket to
// the fitness the pruning pass compares: for random genomes on two
// platforms and under every objective, the Problem.Fitness of Virtual's
// pessimistic Result is at most, and of its optimistic Result at least,
// the fitness of the simulation.
func TestVirtualBracketHoldsFitness(t *testing.T) {
	w, err := workload.Generate(workload.Config{NumJobs: 40, GroupSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	var vs sim.VirtualScratch
	for _, pf := range []platform.Platform{platform.S2().WithBW(4), platform.S4().WithBW(64)} {
		for obj := m3e.Throughput; obj <= m3e.EDP; obj++ {
			prob, err := m3e.NewProblem(w.Groups[0], pf, obj)
			if err != nil {
				t.Fatal(err)
			}
			b := sim.NewBounds(prob.Table)
			for trial := 0; trial < 30; trial++ {
				m := encoding.Decode(encoding.Random(prob.NumJobs(), prob.NumAccels(), r), prob.NumAccels())
				best, worst, ok := b.Virtual(&vs, &m)
				if !ok {
					t.Fatalf("%s: no virtual makespan on a shipped table", pf.Setting)
				}
				exact, _, err := prob.EvaluateMapping(m)
				if err != nil {
					t.Fatal(err)
				}
				if lo, hi := prob.Fitness(worst), prob.Fitness(best); !(lo <= exact && exact <= hi) {
					t.Fatalf("%s %s trial %d: fitness %g outside the bracket [%g, %g]", pf.Setting, obj, trial, exact, lo, hi)
				}
			}
		}
	}
}

// TestVirtualStageSettles checks the second pruning stage fires on a
// pruned search under every objective, cache off and on, without moving
// the result, and that its counters nest: VirtualPruned ≤ BoundPruned,
// and uncached every priced genome is either settled or simulated.
func TestVirtualStageSettles(t *testing.T) {
	table := parallelProblem(t).Table
	const budget = 1000
	for obj := m3e.Throughput; obj <= m3e.EDP; obj++ {
		prob := m3e.ProblemFromTable(table, obj)
		base, err := m3e.Run(prob, unpruned{optmagma.New(optmagma.Config{})}, m3e.Options{Budget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []bool{false, true} {
			label := fmt.Sprintf("%s cache=%v", obj, cache)
			got, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget, Store: storeIf(cache)}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestFitness != base.BestFitness || !reflect.DeepEqual(got.Curve, base.Curve) || !reflect.DeepEqual(got.Best, base.Best) {
				t.Fatalf("%s: result differs from the unpruned run", label)
			}
			st := got.Cache
			checkCounters(t, label, st, got.Asked)
			if st.VirtualPriced == 0 || st.VirtualPruned == 0 {
				t.Errorf("%s: virtual stage idle: %+v", label, st)
			}
			if st.VirtualPruned > st.BoundPruned {
				t.Errorf("%s: VirtualPruned %d exceeds BoundPruned %d", label, st.VirtualPruned, st.BoundPruned)
			}
			if !cache && st.VirtualPriced > st.Misses-(st.BoundPruned-st.VirtualPruned) {
				t.Errorf("%s: priced %d genomes, more than the %d that passed the roofline", label, st.VirtualPriced, st.Misses-(st.BoundPruned-st.VirtualPruned))
			}
		}
	}
}

// TestBracketMissFailsLoudly feeds the check a bracket that sits just
// above every priced genome's true fitness: the first simulated genome
// misses it, and Run must return an error naming the batch index
// instead of pruning on a wrong bracket — cache off and on.
func TestBracketMissFailsLoudly(t *testing.T) {
	prob := parallelProblem(t)
	above := func(lo, hi float64) (float64, float64) {
		v := hi + math.Abs(hi)*1e-3 + 1
		return v, v
	}
	for _, cache := range []bool{false, true} {
		o := m3e.WithBrackets(m3e.Options{Budget: 1000, Store: storeIf(cache)}, above)
		_, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), o, 3)
		if err == nil || !strings.Contains(err.Error(), "batch index") || !strings.Contains(err.Error(), "bracket") {
			t.Errorf("cache=%v: narrowed bracket gave error %v, want a bracket miss naming the batch index", cache, err)
		}
	}
	// The identity hook changes nothing.
	o := m3e.WithBrackets(m3e.Options{Budget: 1000}, func(lo, hi float64) (float64, float64) { return lo, hi })
	if _, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), o, 3); err != nil {
		t.Errorf("identity bracket hook: %v", err)
	}
}

// TestStoreHoldsOnlyExactValues pins the store side of the pruning
// pass. A pruned run stores the exact fitness of every genome it
// simulates and nothing for a genome the pass settles, whose value is
// only an upper bound. A repeat run then returns the identical result,
// simulates nothing and reports identical counters on three stores: the
// warm store, a store the first run filled to capacity, and a store
// restored from the warm one's snapshot. On each the genomes the first
// run settled are priced again and all settle again, because the exact
// hits only raise the floor that settled them. A run with another seed
// on the warm store matches its unpruned run.
func TestStoreHoldsOnlyExactValues(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 1000
	for _, mk := range []func() prunable{
		func() prunable { return optmagma.New(optmagma.Config{}) },
		func() prunable { return ga.New(ga.Config{}) },
	} {
		name := mk().Name()
		refStore := m3e.NewCacheStore(0)
		if _, err := m3e.Run(prob, unpruned{mk()}, m3e.Options{Budget: budget, Store: refStore}, 11); err != nil {
			t.Fatal(err)
		}
		exact := map[encoding.Fingerprint]float64{}
		for _, e := range refStore.Export() {
			exact[e.FP] = e.Fitness
		}

		store := m3e.NewCacheStore(0)
		first, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget, Store: store}, 11)
		if err != nil {
			t.Fatal(err)
		}
		sims := int(first.Cache.Misses - first.Cache.BoundPruned)
		if first.Cache.VirtualPruned == 0 {
			t.Fatalf("%s: the virtual stage settled nothing", name)
		}
		if store.Len() != sims {
			t.Errorf("%s: store holds %d entries, want Misses−BoundPruned = %d", name, store.Len(), sims)
		}
		exported := store.Export()
		for _, e := range exported {
			if want, ok := exact[e.FP]; !ok || e.Fitness != want {
				t.Fatalf("%s: exported entry %v = %v, want exact %v", name, e.FP, e.Fitness, want)
			}
		}

		full := m3e.NewCacheStore(sims)
		if _, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget, Store: full}, 11); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full.Export(), exported) {
			t.Fatalf("%s: a store at capacity %d does not hold the first run's exact entries", name, sims)
		}
		restored := m3e.NewCacheStore(0)
		restored.Import(exported)

		var warm m3e.CacheStats
		for _, c := range []struct {
			label string
			store *m3e.CacheStore
		}{{"warm", store}, {"full", full}, {"restored", restored}} {
			label := name + " repeat on the " + c.label + " store"
			counter := &reaskCounter{prunable: mk()}
			again, err := m3e.Run(prob, counter, m3e.Options{Budget: budget, Store: c.store}, 11)
			if err != nil {
				t.Fatal(err)
			}
			if again.BestFitness != first.BestFitness || !reflect.DeepEqual(again.Curve, first.Curve) || !reflect.DeepEqual(again.Best, first.Best) {
				t.Fatalf("%s: result differs from the first run", label)
			}
			st := again.Cache
			checkCounters(t, label, st, again.Asked)
			checkSettled(t, label, st, again.Asked, counter.reasks)
			if st.Misses != st.BoundPruned {
				t.Errorf("%s: simulated %d genomes, want none", label, st.Misses-st.BoundPruned)
			}
			if st.VirtualPriced == 0 || st.VirtualPriced > st.VirtualPruned {
				t.Errorf("%s: priced %d genomes and settled %d, want the settled genomes priced and settled again", label, st.VirtualPriced, st.VirtualPruned)
			}
			if st.CrossHits != st.Hits-uint64(counter.reasks) {
				t.Errorf("%s: CrossHits %d, want every store hit (%d hits − %d re-asks)", label, st.CrossHits, st.Hits, counter.reasks)
			}
			if c.store == store {
				warm = st
			} else if st != warm {
				t.Errorf("%s: counters %+v, want the warm store's %+v", label, st, warm)
			}
			if !reflect.DeepEqual(c.store.Export(), exported) {
				t.Errorf("%s: the exact entries changed", label)
			}
		}

		// Another seed meets a store it did not fill.
		want, err := m3e.Run(prob, unpruned{mk()}, m3e.Options{Budget: budget}, 12)
		if err != nil {
			t.Fatal(err)
		}
		other, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget, Store: store}, 12)
		if err != nil {
			t.Fatalf("%s seed 12 on the warm store: %v", name, err)
		}
		if other.BestFitness != want.BestFitness || !reflect.DeepEqual(other.Curve, want.Curve) {
			t.Errorf("%s seed 12 on the warm store: result differs from the unpruned run", name)
		}
	}
}
