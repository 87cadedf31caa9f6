package m3e_test

import (
	"reflect"
	"sync"
	"testing"

	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
)

// TestCacheStoreCrossRun pins the cross-run contract: a second run
// bound to the same store via Options.Store returns results
// bit-identical to a cold run while answering most of its evaluations
// from the first run's entries — counted in CrossHits.
func TestCacheStoreCrossRun(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 300
	cold, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget}, 5)
	if err != nil {
		t.Fatal(err)
	}

	store := m3e.NewCacheStore(0)
	first, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: budget, Store: store}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.CrossHits != 0 {
		t.Errorf("first run on a fresh store reports %d cross hits, want 0", first.Cache.CrossHits)
	}
	// Identical seed → identical Ask stream → every decodable sample of
	// the repeat is already stored.
	second, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
		m3e.Options{Budget: budget, Store: store}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]m3e.Result{"shared-first": first, "shared-second": second} {
		if got.BestFitness != cold.BestFitness || !reflect.DeepEqual(got.Best, cold.Best) ||
			!reflect.DeepEqual(got.Curve, cold.Curve) {
			t.Errorf("%s: result differs from the cold run", name)
		}
	}
	if second.Cache.CrossHits == 0 {
		t.Error("repeat run on a shared store reports no cross-run hits")
	}
	// Pruned genomes count as misses but are never simulated.
	if sims := second.Cache.Misses - second.Cache.BoundPruned; sims != 0 {
		t.Errorf("repeat of an identical run re-simulated %d schedules, want 0", sims)
	}
	if second.Cache.CrossHits > second.Cache.Hits {
		t.Errorf("CrossHits %d exceeds Hits %d", second.Cache.CrossHits, second.Cache.Hits)
	}
	if r := second.Cache.CrossHitRate(); r <= 0 || r > 1 {
		t.Errorf("CrossHitRate = %v, want in (0, 1]", r)
	}
}

// TestPoolScratchRebindsToEachStore runs one Pool on store A, then on
// store B, then on A again. The pool keeps one fitness cache for all
// three runs, and each returns the result of an un-pooled run. B's run
// starts from cleared counters and finds none of A's entries: its
// counters equal those of a run on a fresh pool and store, CrossHits 0
// included. Back on A the run has a new run id, so A's entries answer
// it as CrossHits.
func TestPoolScratchRebindsToEachStore(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 300
	run := func(o m3e.Options) m3e.Result {
		t.Helper()
		o.Budget = budget
		res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), o, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := run(m3e.Options{Store: m3e.NewCacheStore(0)})
	pool := m3e.NewPool(prob)
	a, b := m3e.NewCacheStore(0), m3e.NewCacheStore(0)
	onA := run(m3e.Options{Pool: pool, Store: a})
	scratch := m3e.PoolScratch(pool)
	if scratch == nil {
		t.Fatal("a cached run left the pool without cache scratch")
	}
	onB := run(m3e.Options{Pool: pool, Store: b})
	again := run(m3e.Options{Pool: pool, Store: a})
	if m3e.PoolScratch(pool) != scratch {
		t.Error("the pool rebuilt its cache scratch instead of rebinding it")
	}
	for _, r := range []struct {
		name string
		res  m3e.Result
	}{{"A", onA}, {"B", onB}, {"A again", again}} {
		if r.res.BestFitness != fresh.BestFitness || !reflect.DeepEqual(r.res.Best, fresh.Best) || !reflect.DeepEqual(r.res.Curve, fresh.Curve) {
			t.Errorf("run on %s: result differs from the un-pooled run", r.name)
		}
	}
	if onA.Cache != fresh.Cache {
		t.Errorf("run on A counted %+v, the un-pooled run %+v", onA.Cache, fresh.Cache)
	}
	if onB.Cache != fresh.Cache {
		t.Errorf("run on B counted %+v, want the un-pooled run's %+v (stale counters or A's entries)", onB.Cache, fresh.Cache)
	}
	if a.Len() != b.Len() {
		t.Errorf("store A holds %d entries, store B %d; the same search fills both alike", a.Len(), b.Len())
	}
	if again.Cache.CrossHits == 0 {
		t.Error("the second run on A found no entries of the first: its run id was not renewed")
	}
}

// TestCacheStoreConcurrentRuns drives several concurrent runs (distinct
// seeds) through one shared store and checks each matches its private
// cold run — the cmd/serve usage pattern, exercised under -race in CI.
func TestCacheStoreConcurrentRuns(t *testing.T) {
	prob := parallelProblem(t)
	const budget = 150
	seeds := []int64{3, 4, 5, 6}
	cold := make([]m3e.Result, len(seeds))
	for i, seed := range seeds {
		res, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}

	store := m3e.NewCacheStore(0)
	got := make([]m3e.Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i], errs[i] = m3e.Run(prob, optmagma.New(optmagma.Config{}),
				m3e.Options{Budget: budget, Store: store}, seed)
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seeds[i], errs[i])
		}
		if got[i].BestFitness != cold[i].BestFitness || !reflect.DeepEqual(got[i].Curve, cold[i].Curve) {
			t.Errorf("seed %d: shared-store result differs from cold run", seeds[i])
		}
	}
	if store.Len() == 0 {
		t.Error("shared store is empty after four runs")
	}
}

// TestCacheStoreBounded pins that a shared store respects its capacity
// across runs and keeps the FIFO ring consistent when runs overlap on
// fingerprints.
func TestCacheStoreBounded(t *testing.T) {
	prob := parallelProblem(t)
	store := m3e.NewCacheStore(8)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := m3e.Run(prob, optmagma.New(optmagma.Config{}),
			m3e.Options{Budget: 120, Store: store}, seed); err != nil {
			t.Fatal(err)
		}
		if store.Len() > 8 {
			t.Fatalf("seed %d: store holds %d entries, capacity 8", seed, store.Len())
		}
	}
}

// TestCacheStatsAddIncludesCrossHits guards the aggregation path used
// by OptimizeStream and the engine stats.
func TestCacheStatsAddIncludesCrossHits(t *testing.T) {
	a := m3e.CacheStats{Hits: 2, CrossHits: 1, Deduped: 3, Misses: 4, Invalid: 5}
	b := m3e.CacheStats{Hits: 10, CrossHits: 10, Deduped: 10, Misses: 10, Invalid: 10}
	b.Add(a)
	want := m3e.CacheStats{Hits: 12, CrossHits: 11, Deduped: 13, Misses: 14, Invalid: 15}
	if b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
}
