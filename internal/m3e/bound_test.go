package m3e_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/rng"
	"magma/internal/sim"
	"magma/internal/workload"
)

// unpruned exposes only m3e.Optimizer, so Run never prunes it: the
// reference every pruned run is held to.
type unpruned struct{ m3e.Optimizer }

// checkCounters asserts the counter identities the benchmark's
// per-layer formulas rely on.
func checkCounters(t *testing.T, label string, st m3e.CacheStats, asked int) {
	t.Helper()
	if st.Hits+st.Deduped+st.Misses+st.Invalid != uint64(asked) {
		t.Errorf("%s: counters %+v don't add up to %d asked", label, st, asked)
	}
	if st.BoundPruned > st.Misses {
		t.Errorf("%s: BoundPruned %d exceeds Misses %d", label, st.BoundPruned, st.Misses)
	}
	if st.BoundPruned > st.BoundChecked {
		t.Errorf("%s: BoundPruned %d exceeds BoundChecked %d", label, st.BoundPruned, st.BoundChecked)
	}
}

// checkSettled asserts the one-route fingerprint contract on a cached
// run: the retired incremental and clean-copy counters stay 0, and no
// genome the pruning pass settled before the cache is fingerprinted, so
// every asked genome is exactly one of fingerprinted, roofline-pruned,
// invalid or a settled re-ask:
// FullFP+(BoundPruned−VirtualPruned)+Invalid+reasks == asked. (The
// virtual-time stage settles genomes after their fingerprint.)
func checkSettled(t *testing.T, label string, st m3e.CacheStats, asked, reasks int) {
	t.Helper()
	if st.IncrementalFP != 0 || st.CleanFP != 0 {
		t.Errorf("%s: retired fingerprint routes fired: IncrementalFP %d, CleanFP %d", label, st.IncrementalFP, st.CleanFP)
	}
	if st.VirtualPruned > st.BoundPruned {
		t.Fatalf("%s: VirtualPruned %d exceeds BoundPruned %d", label, st.VirtualPruned, st.BoundPruned)
	}
	if got := st.FullFP + st.BoundPruned - st.VirtualPruned + st.Invalid + uint64(reasks); got != uint64(asked) {
		t.Errorf("%s: FullFP %d + BoundPruned %d − VirtualPruned %d + Invalid %d + re-asks %d = %d, want %d asked",
			label, st.FullFP, st.BoundPruned, st.VirtualPruned, st.Invalid, reasks, got, asked)
	}
}

// prunable is an optimizer the runner prunes.
type prunable interface {
	m3e.Optimizer
	m3e.EliteSelector
	m3e.ReaskTracker
}

// reaskCounter forwards a prunable optimizer and counts the verbatim
// re-asks it names within each told (possibly budget-truncated) batch.
// Elitist optimizers only re-ask exact-scored elites, so this is the
// number of genomes the runner settles from the previous batch.
type reaskCounter struct {
	prunable
	reasks int
}

func (c *reaskCounter) Tell(g []encoding.Genome, fit []float64) {
	for i, p := range c.Reasks() {
		if i < len(g) && p >= 0 {
			c.reasks++
		}
	}
	c.prunable.Tell(g, fit)
}

// TestRunBoundDeterminism is the analytical-pruning contract: for every
// elitist mapper, with the cache off and on, Run returns bit-identical
// Results — best genome, best fitness, convergence curve, samples — to
// the unpruned reference, and
// no pruned value ever enters the store. MAGMA's hits exceed what its
// elites alone can earn, so its settled repeat children are exercised.
func TestRunBoundDeterminism(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 800
	mappers := []struct {
		name string
		mk   func() m3e.Optimizer
	}{
		{"MAGMA", func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
		{"stdGA", func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{"CMA", func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
	}
	same := func(t *testing.T, label string, got, want m3e.Result) {
		t.Helper()
		if got.BestFitness != want.BestFitness {
			t.Errorf("%s: BestFitness %v != unpruned %v", label, got.BestFitness, want.BestFitness)
		}
		if !reflect.DeepEqual(got.Best, want.Best) {
			t.Errorf("%s: Best genome differs from unpruned", label)
		}
		if !reflect.DeepEqual(got.Curve, want.Curve) {
			t.Errorf("%s: convergence curve differs from unpruned", label)
		}
		if got.Samples != want.Samples {
			t.Errorf("%s: samples %d != %d", label, got.Samples, want.Samples)
		}
	}
	for _, m := range mappers {
		t.Run(m.name, func(t *testing.T) {
			base, err := m3e.Run(prob, unpruned{m.mk()}, m3e.Options{Budget: budget}, 5)
			if err != nil {
				t.Fatal(err)
			}
			if base.Cache != (m3e.CacheStats{}) {
				t.Errorf("unpruned uncached reference reports counters %+v", base.Cache)
			}
			// The unpruned cached run stores the exact fitness of every
			// schedule the search ever asks; a pruned run asks the same
			// genomes, so its store must be a subset with equal values.
			refStore := m3e.NewCacheStore(0)
			if _, err := m3e.Run(prob, unpruned{m.mk()}, m3e.Options{Budget: budget, Store: refStore}, 5); err != nil {
				t.Fatal(err)
			}
			exact := map[encoding.Fingerprint]float64{}
			for _, e := range refStore.Export() {
				exact[e.FP] = e.Fitness
			}
			var prunedTotal uint64
			for _, cache := range []bool{false, true} {
				label := fmt.Sprintf("cache=%v", cache)
				store := m3e.NewCacheStore(0)
				o := m3e.Options{Budget: budget}
				if cache {
					o.Store = store
				}
				opt := m.mk()
				got, err := m3e.Run(prob, opt, o, 5)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				same(t, label, got, base)
				st := got.Cache
				prunedTotal += st.BoundPruned
				if m.name == "MAGMA" {
					// Elites alone are settled at most nElite times per
					// generation; more hits mean bred children that repeat
					// a parent's schedule were settled too.
					nElite := opt.(m3e.EliteSelector).EliteCount(prob.NumJobs())
					if gens := got.Phases.Generations; st.Hits <= uint64(gens*nElite) {
						t.Errorf("%s: %d hits over %d generations of %d elites: no repeated child was settled",
							label, st.Hits, gens, nElite)
					}
				}
				if m.name == "CMA" && !cache {
					// Not a ReaskTracker: no pass runs, so no layer counts.
					if st != (m3e.CacheStats{}) {
						t.Errorf("%s: CMA is never pruned, yet reports counters %+v", label, st)
					}
				} else {
					checkCounters(t, label, st, got.Asked)
				}
				if !cache {
					continue
				}
				if got, want := store.Len(), int(st.Misses-st.BoundPruned); got != want {
					t.Errorf("%s: store holds %d entries, want Misses−BoundPruned = %d", label, got, want)
				}
				for _, e := range store.Export() {
					if want, ok := exact[e.FP]; !ok || e.Fitness != want {
						t.Fatalf("%s: store entry %v = %v, want exact %v (a bound leaked into the store)",
							label, e.FP, e.Fitness, want)
					}
				}
			}
			t.Logf("%s: %d pruned across runs", m.name, prunedTotal)
			if m.name != "CMA" && prunedTotal == 0 {
				t.Errorf("%s never pruned a candidate; the fast path is dead", m.name)
			}
		})
	}
}

// scripted replays fixed batches with explicit re-asks: batch 0 has
// none, and every later batch claims its first `clean` genomes are
// verbatim re-asks of the previous batch's genomes at the same index.
type scripted struct {
	batches [][]encoding.Genome
	clean   int
	k       int
	gen     int
	told    []float64
}

func (s *scripted) Name() string                            { return "scripted" }
func (s *scripted) Init(*m3e.Problem, *rng.Stream) error    { return nil }
func (s *scripted) Tell(_ []encoding.Genome, fit []float64) { s.told = append([]float64(nil), fit...) }
func (s *scripted) EliteCount(told int) int                 { return s.k }

func (s *scripted) Ask() []encoding.Genome {
	b := s.batches[s.gen%len(s.batches)]
	s.gen++
	return b
}

func (s *scripted) Reasks() []int {
	if s.gen <= 1 {
		return nil
	}
	reasks := make([]int, s.clean)
	for i := range reasks {
		reasks[i] = i
	}
	return reasks
}

// TestFitnessCacheBoundPrunedExcludedFromStore pins the store-side
// invariant of pruning: a pruned genome's assigned bound never enters
// the backing store, so the store only ever holds exact fitness —
// Len() == Misses − BoundPruned, checked after every generation — and
// a later unpruned evaluation of a pruned schedule misses the store and
// gets the exact value.
func TestFitnessCacheBoundPrunedExcludedFromStore(t *testing.T) {
	// Ample bandwidth keeps the problem compute-dominated, so the
	// serialized pile-up's bound (sum of all latencies on one core) is
	// unambiguously below the floor set by spread schedules (max per-core
	// sum) — on a BW-starved problem the shared bandwidth roofline is
	// placement-independent and would mask the difference.
	w, err := workload.Generate(workload.Config{NumJobs: 16, GroupSize: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], platform.S2().WithBW(1e4), m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	// Batch 0: spread random genomes populate the store. Batch 1
	// re-asks them verbatim (clean, forming the elite floor) and adds
	// pile-ups that serialize every job on the slowest core, whose
	// roofline bound cannot reach the floor.
	good := make([]encoding.Genome, 12)
	for i := range good {
		good[i] = encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	}
	pile := make([]encoding.Genome, 4)
	for i := range pile {
		pile[i] = encoding.Genome{Accel: make([]int, prob.NumJobs()), Prio: make([]float64, prob.NumJobs())}
		for j := range pile[i].Prio {
			pile[i].Accel[j] = prob.NumAccels() - 1
			pile[i].Prio[j] = r.Float64()
		}
	}
	second := append(append([]encoding.Genome{}, good...), pile...)
	opt := &scripted{batches: [][]encoding.Genome{good, second}, clean: len(good), k: 2}
	store := m3e.NewCacheStore(0)
	var observed int
	res, err := m3e.Run(prob, opt, m3e.Options{
		Budget: len(good) + len(second), Store: store,
		Observer: func(p m3e.Progress) {
			observed++
			if got, want := store.Len(), int(p.Cache.Misses-p.Cache.BoundPruned); got != want {
				t.Errorf("generation %d: store holds %d entries, want Misses−BoundPruned = %d", p.Generation, got, want)
			}
			checkCounters(t, "progress", p.Cache, p.Asked)
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if observed != 2 {
		t.Fatalf("observed %d generations, want 2", observed)
	}
	st := res.Cache
	if st.BoundChecked == 0 {
		t.Fatal("clean re-asks present, but nothing was checked against a floor")
	}
	if st.BoundPruned != uint64(len(pile)) {
		t.Fatalf("pruned %d genomes, want the %d pile-ups", st.BoundPruned, len(pile))
	}
	if rate := st.BoundPruneRate(); rate <= 0 || rate > 1 {
		t.Errorf("BoundPruneRate = %v, want in (0, 1]", rate)
	}
	// The re-asks are settled by the runner, never fingerprinted.
	checkSettled(t, "result", st, res.Asked, len(good))

	// A pruned schedule evaluated on the same store without pruning must
	// miss and come back exact — the store never serves a bound.
	refit := make([]float64, 1)
	if got := m3e.CachedEval(m3e.NewPool(prob), prob, store)(pile[:1], refit).Misses; got != 1 {
		t.Errorf("re-submitted pruned schedule missed %d times, want 1 (was its bound stored?)", got)
	}
	want, err := prob.Evaluate(pile[0])
	if err != nil {
		t.Fatal(err)
	}
	if refit[0] != want {
		t.Errorf("re-evaluated pruned schedule scored %v, want exact %v", refit[0], want)
	}
	if assigned := opt.told[len(good)]; assigned == want || assigned < want || math.IsInf(assigned, 0) {
		t.Errorf("assigned bound %v vs exact %v: want a finite bound strictly above the exact fitness, or the test is vacuous", assigned, want)
	}
}

// TestRunPruneCountersUncached pins the uncached meaning of the
// counters: Hits are the clean elite re-asks answered from the previous
// batch, Misses every other valid genome, Deduped and the fingerprint
// counters zero — and the identities hold at every generation.
func TestRunPruneCountersUncached(t *testing.T) {
	prob := parallelProblem(t)
	res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{
		Budget:   600,
		Observer: func(p m3e.Progress) { checkCounters(t, "progress", p.Cache, p.Asked) },
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Cache
	checkCounters(t, "result", st, res.Asked)
	if st.Hits == 0 || st.BoundPruned == 0 {
		t.Errorf("MAGMA uncached: %+v, want clean re-asks answered and genomes pruned", st)
	}
	if st.Deduped != 0 || st.FullFP+st.IncrementalFP+st.CleanFP != 0 || st.CrossHits != 0 {
		t.Errorf("uncached run reports cache-only counters: %+v", st)
	}
}

// TestBoundFitnessNeverBeatsSimulation lifts the simulator's bound
// soundness to the fitness the pruning pass compares: for random
// genomes and under every objective, the Problem.Fitness of the
// genome-order bound is never below the Problem.Fitness of the shipped
// simulator. The v1 oracle is test-local to internal/sim, where
// TestQuickBoundNeverBeatsSimulation checks the bound against it.
func TestBoundFitnessNeverBeatsSimulation(t *testing.T) {
	w, err := workload.Generate(workload.Config{NumJobs: 40, GroupSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for _, pf := range []platform.Platform{platform.S2().WithBW(4), platform.S4().WithBW(64)} {
		for obj := m3e.Throughput; obj <= m3e.EDP; obj++ {
			prob, err := m3e.NewProblem(w.Groups[0], pf, obj)
			if err != nil {
				t.Fatal(err)
			}
			b := sim.NewBounds(prob.Table)
			cycles := make([]float64, prob.NumAccels())
			for trial := 0; trial < 20; trial++ {
				g := encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
				energy := obj == m3e.Energy || obj == m3e.EDP
				roof, ok := b.GenomeRoofline(cycles, g.Accel, g.Prio, energy)
				if !ok {
					t.Fatalf("GenomeRoofline rejected a valid genome")
				}
				bound := prob.Fitness(b.RooflineResult(roof))
				m := encoding.Decode(g, prob.NumAccels())
				sres, err := sim.Run(prob.Table, m, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if exact := prob.Fitness(sres); bound < exact {
					t.Fatalf("%s %s trial %d: bound fitness %g below simulated %g",
						pf.Setting, obj, trial, bound, exact)
				}
			}
		}
	}
}
