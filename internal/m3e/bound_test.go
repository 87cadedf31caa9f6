package m3e_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/random"
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
// elitist mapper, Run returns bit-identical Results — best genome, best
// fitness, convergence curve, samples — to the unpruned reference.
// MAGMA's hits exceed what its elites alone can earn, so its settled
// repeat children are exercised.
func TestRunBoundDeterminism(t *testing.T) {
	prob := evaluatorProblem(t)
	const budget = 800
	mappers := []struct {
		name string
		mk   func() m3e.Optimizer
	}{
		{"MAGMA", func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
		{"stdGA", func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{"CMA", func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
	}
	for _, m := range mappers {
		t.Run(m.name, func(t *testing.T) {
			base, err := m3e.Run(prob, unpruned{m.mk()}, m3e.Options{Budget: budget}, 5)
			if err != nil {
				t.Fatal(err)
			}
			// The unpruned reference simulates every valid genome.
			checkCounters(t, "unpruned", base.Cache, base.Asked)
			if st := base.Cache; st.Hits != 0 || st.BoundChecked != 0 {
				t.Errorf("unpruned reference reports settled genomes: %+v", st)
			}
			opt := m.mk()
			got, err := m3e.Run(prob, opt, m3e.Options{Budget: budget}, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestFitness != base.BestFitness {
				t.Errorf("BestFitness %v != unpruned %v", got.BestFitness, base.BestFitness)
			}
			if !reflect.DeepEqual(got.Best, base.Best) {
				t.Error("Best genome differs from unpruned")
			}
			if !reflect.DeepEqual(got.Curve, base.Curve) {
				t.Error("convergence curve differs from unpruned")
			}
			if got.Samples != base.Samples {
				t.Errorf("samples %d != %d", got.Samples, base.Samples)
			}
			st := got.Cache
			checkCounters(t, "pruned", st, got.Asked)
			if m.name == "MAGMA" {
				// Elites alone are settled at most nElite times per
				// generation; more hits mean bred children that repeat
				// a parent's schedule were settled too.
				nElite := opt.(m3e.EliteSelector).EliteCount(prob.NumJobs())
				if gens := got.Phases.Generations; st.Hits <= uint64(gens*nElite) {
					t.Errorf("%d hits over %d generations of %d elites: no repeated child was settled",
						st.Hits, gens, nElite)
				}
			}
			t.Logf("%s: %d pruned", m.name, st.BoundPruned)
			if pruned := st.BoundPruned > 0; pruned != (m.name != "CMA") {
				// CMA is not a ReaskTracker, so no pass runs on it.
				t.Errorf("%s pruned %d candidates", m.name, st.BoundPruned)
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

// TestRooflinePrunesPileUps pins the roofline stage on a scripted
// batch: genomes that serialize every job on one core are settled with
// a finite bound strictly above their exact fitness, and never
// simulated, with the counter identities holding after every
// generation.
func TestRooflinePrunesPileUps(t *testing.T) {
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
	// Batch 0: spread random genomes are simulated. Batch 1
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
	var observed int
	res, err := m3e.Run(prob, opt, m3e.Options{
		Budget: len(good) + len(second),
		Observer: func(p m3e.Progress) {
			observed++
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
	if st.Hits != uint64(len(good)) {
		t.Errorf("%d hits, want the %d re-asks", st.Hits, len(good))
	}
	want, err := prob.Evaluate(pile[0])
	if err != nil {
		t.Fatal(err)
	}
	if assigned := opt.told[len(good)]; assigned == want || assigned < want || math.IsInf(assigned, 0) {
		t.Errorf("assigned bound %v vs exact %v: want a finite bound strictly above the exact fitness, or the test is vacuous", assigned, want)
	}
}

// TestRunPruneCountersUncached pins the meaning of the counters on a
// pruned run: Hits are the clean elite re-asks answered from the
// previous batch, Misses every other valid genome, Deduped, CrossHits
// and the fingerprint counters zero — and the identities hold at every
// generation.
func TestRunPruneCountersUncached(t *testing.T) {
	prob := evaluatorProblem(t)
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
		t.Errorf("run reports counters only a memo answer or the retired store kept: %+v", st)
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

// TestRunCacheDeterminism pins Run's counters on the one evaluation
// path: a run consumes its whole budget and its counters account for
// every sample, pruned mapper or not. For a pruned mapper the hits are
// exactly the re-asks it named; an unpruned one simulates every valid
// genome. No run reports a cross-run hit, a dedup or a fingerprint.
// That the results are identical with Solver.Cache on or off is
// TestResultDigests'.
func TestRunCacheDeterminism(t *testing.T) {
	prob := evaluatorProblem(t)
	const budget = 200
	mappers := []struct {
		name string
		mk   func() m3e.Optimizer
	}{
		{"MAGMA", func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
		{"stdGA", func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{"CMA", func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
		{"Random", func() m3e.Optimizer { return random.New(32) }},
	}
	for _, m := range mappers {
		t.Run(m.name, func(t *testing.T) {
			opt := m.mk()
			var counter *reaskCounter
			if p, ok := opt.(prunable); ok {
				counter = &reaskCounter{prunable: p}
				opt = counter
			}
			got, err := m3e.Run(prob, opt, m3e.Options{Budget: budget}, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got.Samples != budget {
				t.Errorf("samples %d != %d", got.Samples, budget)
			}
			st := got.Cache
			checkCounters(t, m.name, st, got.Asked)
			if st.CrossHits+st.Deduped+st.FullFP+st.IncrementalFP+st.CleanFP != 0 {
				t.Errorf("counters %+v: a run reports no cross-run hit, dedup or fingerprint", st)
			}
			reasks := 0
			if counter != nil {
				if counter.reasks == 0 {
					t.Errorf("%s re-asks its elites every generation; counted none", m.name)
				}
				reasks = counter.reasks
			}
			if st.Hits != uint64(reasks) {
				t.Errorf("%d hits, want the %d re-asks the mapper named", st.Hits, reasks)
			}
		})
	}
}
