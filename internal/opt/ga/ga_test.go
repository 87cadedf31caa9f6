package ga

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
	"magma/internal/rng"
)

func TestBattery(t *testing.T) {
	opttest.Battery(t, func() m3e.Optimizer { return New(Config{Population: 24}) }, 400, 1.05)
}

func TestDefaultsFollowTableIV(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MutationRate != 0.1 || cfg.CrossoverRate != 0.1 {
		t.Errorf("rates = %+v, want 0.1/0.1 per Table IV", cfg)
	}
}

func TestCrossoverSinglePivot(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 20, platform.S2())
	o := New(Config{Population: 8})
	if err := o.Init(prob, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	dad := encoding.Genome{Accel: make([]int, 20), Prio: make([]float64, 20)}
	mom := encoding.Genome{Accel: make([]int, 20), Prio: make([]float64, 20)}
	for j := 0; j < 20; j++ {
		dad.Accel[j], mom.Accel[j] = 0, 1
		dad.Prio[j], mom.Prio[j] = 0.25, 0.75
	}
	for trial := 0; trial < 50; trial++ {
		child := dad.Clone()
		o.crossover(child, mom)
		// The concatenated string must be dad-prefix then mom-suffix.
		flat := make([]int, 0, 40)
		for _, a := range child.Accel {
			flat = append(flat, a)
		}
		for _, p := range child.Prio {
			if p == 0.25 {
				flat = append(flat, 0)
			} else {
				flat = append(flat, 1)
			}
		}
		switched := false
		for i, v := range flat {
			if v == 1 && !switched {
				switched = true
			}
			if switched && v == 0 {
				t.Fatalf("trial %d: dad gene at %d after mom prefix started", trial, i)
			}
		}
	}
}

func TestMutationBounds(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 15, platform.S2())
	o := New(Config{Population: 8, MutationRate: 0.9})
	if err := o.Init(prob, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := encoding.Random(15, 4, r)
		o.mutate(g)
		if err := g.Validate(15, 4); err != nil {
			t.Fatalf("mutated genome invalid: %v", err)
		}
	}
}

// TestVariationProvenance pins stdGA's m3e.ReaskTracker contract, which
// the runner's pruning pass relies on to reuse exact fitness: Reasks is
// nil before the first Tell; afterwards the first nElite slots name the
// top-ranked told genomes, each bit-identical to the genome it names,
// and every bred child is -1.
func TestVariationProvenance(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 20, platform.S2())
	o := New(Config{Population: 30})
	if err := o.Init(prob, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	if o.Reasks() != nil {
		t.Fatal("initial population claims re-asks")
	}
	r := rand.New(rand.NewSource(8))
	nElite := o.EliteCount(30)
	var told []encoding.Genome
	var fit []float64
	for gen := 0; gen < 5; gen++ {
		pop := o.Ask()
		if gen > 0 {
			reasks := o.Reasks()
			if len(reasks) != len(pop) {
				t.Fatalf("gen %d: %d re-ask entries for %d genomes", gen, len(reasks), len(pop))
			}
			ranked := make([]int, len(told))
			for i := range ranked {
				ranked[i] = i
			}
			sort.SliceStable(ranked, func(a, b int) bool { return fit[ranked[a]] > fit[ranked[b]] })
			for i, p := range reasks {
				if i >= nElite {
					if p != -1 {
						t.Fatalf("gen %d slot %d: bred child claims to re-ask %d", gen, i, p)
					}
					continue
				}
				if p != ranked[i] {
					t.Fatalf("gen %d slot %d: re-asks %d, want elite %d", gen, i, p, ranked[i])
				}
				if !reflect.DeepEqual(pop[i], told[p]) {
					t.Fatalf("gen %d slot %d: claimed re-ask differs from previous-batch genome %d", gen, i, p)
				}
			}
		}
		told = make([]encoding.Genome, len(pop))
		fit = make([]float64, len(pop))
		for i, g := range pop {
			told[i] = g.Clone()
			fit[i] = r.Float64()
		}
		o.Tell(pop, fit)
	}
}
