package magma

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"magma/internal/rng"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
)

func TestBattery(t *testing.T) {
	opttest.Battery(t, func() m3e.Optimizer { return New(Config{Population: 24}) }, 400, 1.1)
}

func newInited(t *testing.T, cfg Config, nJobs int) *Optimizer {
	t.Helper()
	prob := opttest.Problem(t, models.Mix, nJobs, platform.S2())
	o := New(cfg)
	if err := o.Init(prob, rng.New(5)); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return o
}

func TestDefaultsFollowPaper(t *testing.T) {
	cfg := Config{}.withDefaults(100)
	if cfg.Population != 100 {
		t.Errorf("population = %d, want group size 100", cfg.Population)
	}
	if cfg.MutationRate != 0.05 || cfg.CrossoverGenRate != 0.9 ||
		cfg.CrossoverRGRate != 0.05 || cfg.CrossoverAccelRate != 0.05 {
		t.Errorf("operator rates diverge from §V-B2: %+v", cfg)
	}
}

func TestAskReturnsValidPopulation(t *testing.T) {
	o := newInited(t, Config{}, 20)
	pop := o.Ask()
	if len(pop) != 20 {
		t.Fatalf("population = %d, want group size 20", len(pop))
	}
	for i, g := range pop {
		if err := g.Validate(20, 4); err != nil {
			t.Errorf("individual %d invalid: %v", i, err)
		}
	}
}

func TestTellEvolvesElites(t *testing.T) {
	o := newInited(t, Config{Population: 10}, 20)
	pop := o.Ask()
	fit := make([]float64, len(pop))
	for i := range fit {
		fit[i] = float64(i) // individual 9 is best
	}
	best := pop[9].Clone()
	o.Tell(pop, fit)
	next := o.Ask()
	// The elite must survive verbatim.
	found := false
	for _, g := range next {
		same := true
		for j := range g.Accel {
			if g.Accel[j] != best.Accel[j] || g.Prio[j] != best.Prio[j] {
				same = false
				break
			}
		}
		if same {
			found = true
			break
		}
	}
	if !found {
		t.Error("best individual did not survive as elite")
	}
}

func operatorHarness(t *testing.T, nJobs int) (*Optimizer, encoding.Genome, encoding.Genome) {
	t.Helper()
	o := newInited(t, Config{}, nJobs)
	r := rand.New(rand.NewSource(11))
	return o, encoding.Random(nJobs, o.nAccels, r), encoding.Random(nJobs, o.nAccels, r)
}

func TestCrossoverGenTouchesOneGenome(t *testing.T) {
	o, dad, mom := operatorHarness(t, 30)
	for trial := 0; trial < 50; trial++ {
		child := dad.Clone()
		st := o.root.At(1000, uint64(trial))
		o.crossoverGen(child, mom, &st)
		accelChanged, prioChanged := false, false
		for j := 0; j < 30; j++ {
			if child.Accel[j] != dad.Accel[j] {
				accelChanged = true
				if child.Accel[j] != mom.Accel[j] {
					t.Fatal("accel gene from neither parent")
				}
			}
			if child.Prio[j] != dad.Prio[j] {
				prioChanged = true
				if child.Prio[j] != mom.Prio[j] {
					t.Fatal("prio gene from neither parent")
				}
			}
		}
		if accelChanged && prioChanged {
			t.Fatal("crossover-gen modified both genomes in one application")
		}
	}
}

// TestCrossoverGenCopiesSmallerSide pins which side of the pivot
// crossover-gen exchanges: of the two equally valid sides, always the
// smaller one — a contiguous prefix or suffix covering at most half the
// jobs. The side is part of every seed's result, so it must not drift.
func TestCrossoverGenCopiesSmallerSide(t *testing.T) {
	const nJobs = 30
	o, dad, mom := operatorHarness(t, nJobs)
	// Fully distinguishable parents: every copied gene is observable.
	for j := 0; j < nJobs; j++ {
		dad.Accel[j], mom.Accel[j] = j%o.nAccels, (j+1)%o.nAccels
		dad.Prio[j], mom.Prio[j] = 0.25, 0.75
	}
	sawPrefix, sawSuffix := false, false
	for trial := 0; trial < 100; trial++ {
		child := dad.Clone()
		st := o.root.At(1005, uint64(trial))
		o.crossoverGen(child, mom, &st)
		changed := make([]bool, nJobs)
		n := 0
		for j := 0; j < nJobs; j++ {
			if child.Accel[j] != dad.Accel[j] || child.Prio[j] != dad.Prio[j] {
				changed[j] = true
				n++
			}
		}
		if n == 0 {
			continue // pivot 0 or nJobs: empty smaller side
		}
		if n > nJobs/2 {
			t.Fatalf("trial %d: exchanged %d of %d genes — the larger pivot side", trial, n, nJobs)
		}
		// The exchanged genes must form one contiguous run anchored at an
		// end of the gene string (a prefix [0,pivot) or suffix [pivot,n)).
		first, last := -1, -1
		for j, c := range changed {
			if c {
				if first == -1 {
					first = j
				}
				last = j
			}
		}
		if last-first+1 != n {
			t.Fatalf("trial %d: exchanged genes not contiguous", trial)
		}
		switch {
		case first == 0:
			sawPrefix = true
		case last == nJobs-1:
			sawSuffix = true
		default:
			t.Fatalf("trial %d: exchanged run [%d,%d] anchored at neither end", trial, first, last)
		}
	}
	if !sawPrefix || !sawSuffix {
		t.Errorf("trials covered prefix=%v suffix=%v, want both sides exercised", sawPrefix, sawSuffix)
	}
}

func TestCrossoverRGPreservesPairs(t *testing.T) {
	o, dad, mom := operatorHarness(t, 30)
	for trial := 0; trial < 50; trial++ {
		child := dad.Clone()
		st := o.root.At(1001, uint64(trial))
		o.crossoverRG(child, mom, &st)
		for j := 0; j < 30; j++ {
			fromDad := child.Accel[j] == dad.Accel[j] && child.Prio[j] == dad.Prio[j]
			fromMom := child.Accel[j] == mom.Accel[j] && child.Prio[j] == mom.Prio[j]
			if !fromDad && !fromMom {
				t.Fatalf("job %d (accel,prio) pair split across parents", j)
			}
		}
	}
}

func TestCrossoverRGSwapsContiguousRange(t *testing.T) {
	o, dad, mom := operatorHarness(t, 30)
	// Make parents fully distinguishable.
	for j := range dad.Accel {
		dad.Accel[j], mom.Accel[j] = 0, 1
		dad.Prio[j], mom.Prio[j] = 0.25, 0.75
	}
	for trial := 0; trial < 50; trial++ {
		child := dad.Clone()
		st := o.root.At(1002, uint64(trial))
		o.crossoverRG(child, mom, &st)
		// Mom-genes must form one contiguous range.
		first, last := -1, -1
		for j := 0; j < 30; j++ {
			if child.Accel[j] == 1 {
				if first == -1 {
					first = j
				}
				last = j
			}
		}
		if first == -1 {
			t.Fatal("crossover-rg swapped nothing")
		}
		for j := first; j <= last; j++ {
			if child.Accel[j] != 1 {
				t.Fatalf("mom range not contiguous at %d", j)
			}
		}
	}
}

func TestCrossoverAccelTransplantsCore(t *testing.T) {
	o, dad, mom := operatorHarness(t, 40)
	for trial := 0; trial < 80; trial++ {
		child := dad.Clone()
		st := o.root.At(1003, uint64(trial))
		o.crossoverAccel(child, mom, &st, make([]bool, o.nJobs))
		// Find which core was transplanted: every mom-job of that core
		// must appear in the child with mom's priority.
		for a := 0; a < o.nAccels; a++ {
			allMatch := true
			count := 0
			for j := 0; j < 40; j++ {
				if mom.Accel[j] == a {
					count++
					if child.Accel[j] != a || child.Prio[j] != mom.Prio[j] {
						allMatch = false
					}
				}
			}
			if allMatch && count > 0 {
				return // found a fully transplanted core
			}
		}
	}
	t.Error("no trial produced a complete core transplant")
}

func TestMutationRespectsBounds(t *testing.T) {
	o := newInited(t, Config{MutationRate: 0.8}, 25)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		g := encoding.Random(25, o.nAccels, r)
		st := o.root.At(1004, uint64(trial))
		o.mutate(g, &st)
		if err := g.Validate(25, o.nAccels); err != nil {
			t.Fatalf("mutated genome invalid: %v", err)
		}
	}
}

func TestAblationConfig(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 20, platform.S2())
	o := New(Config{Population: 10, DisableCrossoverGen: true, DisableCrossoverRG: true, DisableCrossoverAccel: true})
	res, err := m3e.Run(prob, o, m3e.Options{Budget: 100}, 2)
	if err != nil {
		t.Fatalf("mutation-only MAGMA failed: %v", err)
	}
	if res.Samples != 100 {
		t.Errorf("samples = %d", res.Samples)
	}
}

func TestWarmStartSeeding(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 20, platform.S2())
	// Solve once, record the solution, re-init seeded and check the seed
	// is present in the first Ask.
	res, err := m3e.Run(prob, New(Config{Population: 10}), m3e.Options{Budget: 200}, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Population: 10})
	o.Seed([]encoding.Genome{res.Best})
	if err := o.Init(prob, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	first := o.Ask()[0]
	for j := range first.Accel {
		if first.Accel[j] != res.Best.Accel[j] || first.Prio[j] != res.Best.Prio[j] {
			t.Fatal("seed not injected as first individual")
		}
	}
}

func TestWarmStartInvalidSeedRejected(t *testing.T) {
	prob := opttest.Problem(t, models.Mix, 20, platform.S2())
	o := New(Config{Population: 10})
	bad := encoding.Genome{Accel: make([]int, 20), Prio: make([]float64, 20)}
	bad.Accel[0] = 99
	o.Seed([]encoding.Genome{bad})
	if err := o.Init(prob, rng.New(1)); err == nil {
		t.Error("invalid warm-start seed accepted")
	}
}

func TestWarmStore(t *testing.T) {
	ws := NewWarmStore(2)
	r := rand.New(rand.NewSource(3))
	if ws.Known(models.Vision) {
		t.Error("empty store claims knowledge")
	}
	g1 := encoding.Random(10, 4, r)
	g2 := encoding.Random(10, 4, r)
	g3 := encoding.Random(12, 4, r)
	ws.Record(models.Vision, g1)
	ws.Record(models.Vision, g2)
	ws.Record(models.Vision, g3)
	if !ws.Known(models.Vision) || ws.Known(models.Language) {
		t.Error("Known() wrong")
	}
	// Limit 2: g1 evicted; only g3 matches size 12.
	if got := ws.SeedsFor(models.Vision, 12); len(got) != 1 {
		t.Errorf("seeds for size 12 = %d, want 1", len(got))
	}
	if got := ws.SeedsFor(models.Vision, 10); len(got) != 1 {
		t.Errorf("seeds for size 10 = %d, want 1 (g1 evicted)", len(got))
	}
	if got := ws.SeedsFor(models.Language, 10); len(got) != 0 {
		t.Errorf("seeds for unseen task = %d, want 0", len(got))
	}
}

// TestTellScratchReuse drives several generations through the Ask/Tell
// loop and checks the scratch-reusing breeder never aliases live
// genomes: the told batch must be untouched by the Tell that consumes
// it, and populations stay structurally valid across buffer swaps.
func TestTellScratchReuse(t *testing.T) {
	o := newInited(t, Config{Population: 12}, 20)
	r := rand.New(rand.NewSource(19))
	for gen := 0; gen < 6; gen++ {
		pop := o.Ask()
		snapshot := make([]encoding.Genome, len(pop))
		for i, g := range pop {
			snapshot[i] = g.Clone()
		}
		fit := make([]float64, len(pop))
		for i := range fit {
			fit[i] = r.Float64()
		}
		o.Tell(pop, fit)
		for i, g := range pop {
			for j := range g.Accel {
				if g.Accel[j] != snapshot[i].Accel[j] || g.Prio[j] != snapshot[i].Prio[j] {
					t.Fatalf("gen %d: Tell mutated told genome %d in place", gen, i)
				}
			}
		}
		next := o.Ask()
		if len(next) != 12 {
			t.Fatalf("gen %d: population = %d, want 12", gen, len(next))
		}
		for i, g := range next {
			if err := g.Validate(20, o.nAccels); err != nil {
				t.Fatalf("gen %d: individual %d invalid: %v", gen, i, err)
			}
		}
	}
}

// TestTellSteadyStateAllocs pins that, once the scratch buffers are
// warm, a whole selection and breeding step allocates nothing.
func TestTellSteadyStateAllocs(t *testing.T) {
	o := newInited(t, Config{Population: 24}, 20)
	r := rand.New(rand.NewSource(29))
	fit := make([]float64, 24)
	for warm := 0; warm < 3; warm++ { // grow top/elites/spare
		for i := range fit {
			fit[i] = r.Float64()
		}
		o.Tell(o.Ask(), fit)
	}
	allocs := testing.AllocsPerRun(20, func() {
		o.Tell(o.Ask(), fit)
	})
	if allocs != 0 {
		t.Errorf("steady-state Tell allocates %.1f times, want 0", allocs)
	}
}

// TestTopKMatchesStableSort checks the elite selection against the
// first k of a stable sort by descending fitness, on values drawn from
// a few levels (so ties are common) plus +Inf and -Inf, the score of an
// invalid genome.
func TestTopKMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	levels := []float64{math.Inf(-1), math.Inf(1), 0, 0.25, 0.5, 1}
	var top []int
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.Intn(40)
		fit := make([]float64, n)
		for i := range fit {
			if r.Intn(2) == 0 {
				fit[i] = levels[r.Intn(len(levels))]
			} else {
				fit[i] = r.Float64()
			}
		}
		ranked := make([]int, n)
		for i := range ranked {
			ranked[i] = i
		}
		sort.SliceStable(ranked, func(a, b int) bool { return fit[ranked[a]] > fit[ranked[b]] })
		k := r.Intn(n + 1)
		top = topK(top, fit, k)
		if !slices.Equal(top, ranked[:k]) {
			t.Fatalf("fitness %v, k=%d: topK %v, stable sort %v", fit, k, top, ranked[:k])
		}
	}
}

// Property: breed always yields a structurally valid genome.
func TestQuickBreedValidity(t *testing.T) {
	o := newInited(t, Config{}, 30)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dad := encoding.Random(30, o.nAccels, r)
		mom := encoding.Random(30, o.nAccels, r)
		child := o.breed(dad, mom)
		return child.Validate(30, o.nAccels) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVariationProvenance pins the m3e.ReaskTracker contract the
// runner's pruning pass relies on to reuse exact fitness, across several
// generations of the real operator pipeline (all crossovers + mutation
// at default rates): Reasks is nil before the first Tell; afterwards
// the first nElite slots are bit-identical copies of the told batch's
// ranked elites, and every other slot it names decodes to the schedule
// of the genome it names. At 16 jobs, where offspring often repeat a
// parent, some bred child must be named.
func TestVariationProvenance(t *testing.T) {
	for _, nJobs := range []int{16, 30} {
		prob := opttest.Problem(t, models.Mix, nJobs, platform.S2())
		nAccels := prob.NumAccels()
		o := New(Config{})
		if err := o.Init(prob, rng.New(11)); err != nil {
			t.Fatal(err)
		}
		if o.Reasks() != nil {
			t.Fatal("initial population claims re-asks")
		}
		nElite := o.EliteCount(nJobs)
		r := rand.New(rand.NewSource(13))
		var prev []encoding.Genome
		var prevFit []float64
		named := 0
		for gen := 0; gen < 6; gen++ {
			pop := o.Ask()
			if reasks := o.Reasks(); gen == 0 {
				if reasks != nil {
					t.Fatal("generation 0 claims re-asks")
				}
			} else {
				if len(reasks) != len(pop) {
					t.Fatalf("J=%d gen %d: %d re-ask entries for %d genomes", nJobs, gen, len(reasks), len(pop))
				}
				ranked := make([]int, len(prev))
				for i := range ranked {
					ranked[i] = i
				}
				sort.SliceStable(ranked, func(a, b int) bool { return prevFit[ranked[a]] > prevFit[ranked[b]] })
				for i, p := range reasks {
					switch {
					case i < nElite:
						if p != ranked[i] {
							t.Fatalf("J=%d gen %d slot %d: re-asks %d, want elite %d", nJobs, gen, i, p, ranked[i])
						}
						if !reflect.DeepEqual(pop[i], prev[p]) {
							t.Fatalf("J=%d gen %d slot %d: elite differs from previous-batch genome %d", nJobs, gen, i, p)
						}
					case p == -1:
					case !slices.Contains(ranked[:nElite], p):
						t.Fatalf("J=%d gen %d slot %d: bred child names %d, not an elite", nJobs, gen, i, p)
					case !reflect.DeepEqual(encoding.Decode(pop[i], nAccels), encoding.Decode(prev[p], nAccels)):
						t.Fatalf("J=%d gen %d slot %d: bred child does not decode to the schedule of %d", nJobs, gen, i, p)
					default:
						named++
					}
				}
			}
			prev = make([]encoding.Genome, len(pop))
			prevFit = make([]float64, len(pop))
			for i, g := range pop {
				prev[i] = g.Clone()
				prevFit[i] = r.Float64()
			}
			o.Tell(pop, prevFit)
		}
		t.Logf("J=%d: %d bred children named a parent", nJobs, named)
		if nJobs == 16 && named == 0 {
			t.Errorf("J=16: no bred child named a parent; the repeat path is dead")
		}
	}
}
