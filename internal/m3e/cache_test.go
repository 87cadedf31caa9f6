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
)

// storeIf returns a fresh store of the run's own for a cached run and
// nil for an uncached one.
func storeIf(cached bool) *m3e.CacheStore {
	if cached {
		return m3e.NewCacheStore(0)
	}
	return nil
}

// TestRunCacheDeterminism pins the fitness cache's counters at every
// worker count: a cached run still consumes its whole budget, its
// counters account for every sample, and the cache keeps a single
// fingerprint route — the retired incremental and clean-copy counters
// stay 0, and every genome is fingerprinted exactly once unless the
// runner's pruning pass settled it (re-ask, pruned or invalid). That
// cache on and off return bit-identical Results is TestResultDigests'
// (the MAGMA, stdGA, CMA and Random cells).
func TestRunCacheDeterminism(t *testing.T) {
	prob := parallelProblem(t)
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
			got, err := m3e.Run(prob, opt, m3e.Options{Budget: budget, Store: m3e.NewCacheStore(0)}, 5)
			if err != nil {
				t.Fatalf("cache=on: %v", err)
			}
			if got.Samples != budget {
				t.Errorf("cache=on: samples %d != %d (cache hits must still consume budget)",
					got.Samples, budget)
			}
			st := got.Cache
			if st.Hits+st.Deduped+st.Misses+st.Invalid != uint64(got.Samples) {
				t.Errorf("counters %+v don't add up to %d samples", st, got.Samples)
			}
			if m.name == "MAGMA" && st.Hits == 0 {
				t.Error("MAGMA re-Asks its elites every generation; expected cache hits > 0")
			}
			if counter != nil {
				if counter.reasks == 0 {
					t.Errorf("%s re-asks its elites every generation; counted none", m.name)
				}
				checkSettled(t, m.name, st, got.Asked, counter.reasks)
			} else {
				checkSettled(t, m.name, st, got.Asked, 0)
			}
		})
	}
}

// TestFitnessCacheMatchesPool drives a pool's fitness cache directly on
// adversarial batches — duplicates, schedule-equivalent genomes, and an
// invalid genome — and checks every fitness equals the plain pool's.
func TestFitnessCacheMatchesPool(t *testing.T) {
	prob := parallelProblem(t)
	r := rand.New(rand.NewSource(17))
	pool := m3e.NewPool(prob)
	eval := m3e.CachedEval(pool, prob, m3e.NewCacheStore(0))
	var st m3e.CacheStats
	recurring := encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	for round := 0; round < 5; round++ {
		var batch []encoding.Genome
		for i := 0; i < 8; i++ {
			batch = append(batch, encoding.Random(prob.NumJobs(), prob.NumAccels(), r))
		}
		batch = append(batch, recurring.Clone()) // cross-batch repeat (cache hit from round 2 on)
		batch = append(batch, batch[0])          // verbatim in-batch duplicate
		eq := batch[1].Clone()                   // schedule-equivalent: rescaled priorities
		for j := range eq.Prio {
			eq.Prio[j] *= 0.5
		}
		batch = append(batch, eq)
		batch = append(batch, encoding.Genome{Accel: []int{0}, Prio: []float64{0.1}}) // invalid

		got := make([]float64, len(batch))
		st = eval(batch, got)
		want := make([]float64, len(batch))
		m3e.NewPool(prob).Evaluate(batch, want)
		for i := range want {
			if got[i] != want[i] && !(math.IsInf(got[i], -1) && math.IsInf(want[i], -1)) {
				t.Fatalf("round %d: fit[%d] = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
	if st.Deduped == 0 {
		t.Error("batches contained duplicates and equivalent genomes; Deduped = 0")
	}
	if st.Invalid == 0 {
		t.Error("batches contained an invalid genome; Invalid = 0")
	}
	if st.Hits < 4 {
		t.Errorf("rounds 2-5 re-submitted a cached genome; Hits = %d, want >= 4", st.Hits)
	}
}

// TestFitnessCacheReusedFitBuffer is a regression test: the runner
// reuses one fit slice across batches, so a -Inf left at index i by an
// earlier batch (invalid genome) must not leak into the next batch's
// classification of a valid genome at the same index.
func TestFitnessCacheReusedFitBuffer(t *testing.T) {
	prob := parallelProblem(t)
	r := rand.New(rand.NewSource(31))
	pool := m3e.NewPool(prob)
	eval := m3e.CachedEval(pool, prob, m3e.NewCacheStore(0))
	fit := make([]float64, 2)

	bad := encoding.Genome{Accel: []int{0}, Prio: []float64{0.1}}
	first := []encoding.Genome{bad, encoding.Random(prob.NumJobs(), prob.NumAccels(), r)}
	eval(first, fit)
	if !math.IsInf(fit[0], -1) {
		t.Fatalf("invalid genome scored %v, want -Inf", fit[0])
	}

	second := []encoding.Genome{encoding.Random(prob.NumJobs(), prob.NumAccels(), r), first[1]}
	st := eval(second, fit) // fit[0] still holds the stale -Inf
	want, err := prob.Evaluate(second[0])
	if err != nil {
		t.Fatal(err)
	}
	if fit[0] != want {
		t.Fatalf("valid genome at a previously -Inf index scored %v, want %v", fit[0], want)
	}
	if inv := st.Invalid; inv != 1 {
		t.Errorf("Invalid = %d, want 1 (only the genuinely invalid genome)", inv)
	}
}

// TestFitnessCacheEviction pins the FIFO bound: the cache never exceeds
// its capacity, keeps answering correctly after evicting, and re-misses
// on evicted schedules.
func TestFitnessCacheEviction(t *testing.T) {
	prob := parallelProblem(t)
	r := rand.New(rand.NewSource(23))
	const capEntries = 4
	store := m3e.NewCacheStore(capEntries)
	eval := m3e.CachedEval(m3e.NewPool(prob), prob, store)

	batch := make([]encoding.Genome, 12)
	for i := range batch {
		batch[i] = encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	}
	fit := make([]float64, len(batch))
	if st := eval(batch, fit); st.Misses != 12 {
		t.Fatalf("misses = %d, want 12", st.Misses)
	}
	if store.Len() > capEntries {
		t.Fatalf("cache holds %d entries, capacity %d", store.Len(), capEntries)
	}

	// Re-evaluate: the first 8 were evicted (FIFO), the last 4 must hit.
	fit2 := make([]float64, len(batch))
	st := eval(batch, fit2)
	if !reflect.DeepEqual(fit, fit2) {
		t.Error("fitness changed across cache rounds")
	}
	if st.Hits != 4 {
		t.Errorf("hits after eviction round = %d, want 4 (the %d newest survivors)", st.Hits, capEntries)
	}
	if store.Len() > capEntries {
		t.Errorf("cache grew to %d entries past capacity %d", store.Len(), capEntries)
	}
}

// TestRunCachedBatchBufferReuse smoke-tests a full cached MAGMA run end
// to end and pins that elite re-asks actually register as hits.
func TestRunCachedBatchBufferReuse(t *testing.T) {
	prob := parallelProblem(t)
	res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: 400, Store: m3e.NewCacheStore(0)}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.HitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0 (elites repeat across generations)", res.Cache.HitRate())
	}
}
