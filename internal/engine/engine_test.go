package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"magma/internal/engine"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/persist"
	"magma/internal/platform"
	"magma/internal/workload"
)

func engGroup(t testing.TB, seed int64) workload.Group {
	t.Helper()
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: 16, GroupSize: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w.Groups[0]
}

// TestEngineTableReuse: repeated acquisitions of the same content build
// the analysis table once; a new objective on the same content reuses
// the table through a distinct problem entry.
func TestEngineTableReuse(t *testing.T) {
	e := engine.New(engine.Config{})
	g, pf := engGroup(t, 5), platform.S2()

	h1, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Problem(engGroup(t, 5), pf, m3e.Throughput) // regenerated, equal content
	if err != nil {
		t.Fatal(err)
	}
	if h1.Prob() != h2.Prob() {
		t.Error("equal-content acquisitions returned distinct problems")
	}
	hLat, err := e.Problem(g, pf, m3e.Latency)
	if err != nil {
		t.Fatal(err)
	}
	if hLat.Prob() == h1.Prob() {
		t.Error("objectives must get distinct problems")
	}
	if hLat.Prob().Table != h1.Prob().Table {
		t.Error("a new objective on known content must reuse the analysis table")
	}
	st := e.Stats()
	if st.TablesBuilt != 1 {
		t.Errorf("TablesBuilt = %d, want 1", st.TablesBuilt)
	}
	if st.TablesReused != 2 {
		t.Errorf("TablesReused = %d, want 2", st.TablesReused)
	}
}

// TestEngineRunMatchesPlainRun: an engine run is bit-identical to a
// plain m3e.Run, a repeat on the same handle is too, and the engine
// keeps no evaluation scratch between them.
func TestEngineRunMatchesPlainRun(t *testing.T) {
	g, pf := engGroup(t, 7), platform.S2()
	prob, err := m3e.NewProblem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: 200}, 3)
	if err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{})
	h, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		res, err := h.RunCtx(context.Background(), optmagma.New(optmagma.Config{}), m3e.Options{Budget: 200}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness != cold.BestFitness || !reflect.DeepEqual(res.Best, cold.Best) ||
			!reflect.DeepEqual(res.Curve, cold.Curve) || res.Cache != cold.Cache {
			t.Errorf("rep %d: engine run differs from plain run", rep)
		}
	}
	st := e.Stats()
	if st.Searches != 2 {
		t.Errorf("Searches = %d, want 2", st.Searches)
	}
	if st.PoolsBuilt != 0 || st.PoolsReused != 0 {
		t.Errorf("pools built/reused = %d/%d, want 0/0 (each run builds its own evaluator)",
			st.PoolsBuilt, st.PoolsReused)
	}
	if want := cold.Cache; st.Cache.Misses != 2*want.Misses || st.Cache.CrossHits != 0 {
		t.Errorf("engine stats aggregate %+v, want twice %+v and no cross-run hits", st.Cache, want)
	}
}

// TestEngineEviction: the problem cache is FIFO-bounded; evicted
// content is rebuilt on return.
func TestEngineEviction(t *testing.T) {
	e := engine.New(engine.Config{MaxProblems: 2})
	pf := platform.S2()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := e.Problem(engGroup(t, seed), pf, m3e.Throughput); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ProblemsEvicted != 1 {
		t.Fatalf("ProblemsEvicted = %d, want 1", st.ProblemsEvicted)
	}
	if st.TablesBuilt != 3 {
		t.Fatalf("TablesBuilt = %d, want 3", st.TablesBuilt)
	}
	// Seed 1 was the FIFO victim: re-acquiring it rebuilds.
	if _, err := e.Problem(engGroup(t, 1), pf, m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().TablesBuilt; got != 4 {
		t.Errorf("TablesBuilt after re-acquire = %d, want 4 (evicted content rebuilds)", got)
	}
}

// TestEngineProblemError: an invalid problem (fewer jobs than cores)
// surfaces its error on every acquisition, and failed builds never
// occupy cache slots — a stream of distinct bad requests must not
// evict valid hot tables.
func TestEngineProblemError(t *testing.T) {
	e := engine.New(engine.Config{MaxProblems: 2})
	if _, err := e.Problem(engGroup(t, 5), platform.S2(), m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := engGroup(t, seed)
		g.Jobs = g.Jobs[:2] // S2 has 4 sub-accelerators
		for i := 0; i < 2; i++ {
			if _, err := e.Problem(g, platform.S2(), m3e.Throughput); err == nil {
				t.Fatalf("seed %d acquisition %d: undersized group accepted", seed, i)
			}
		}
	}
	// The valid table must still be resident: re-acquiring it cannot
	// trigger a rebuild or an eviction.
	if _, err := e.Problem(engGroup(t, 5), platform.S2(), m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ProblemsEvicted != 0 {
		t.Errorf("ProblemsEvicted = %d, want 0 (error entries must not occupy FIFO slots)", st.ProblemsEvicted)
	}
	if st.TablesReused == 0 {
		t.Error("valid table was not reused after a stream of bad requests")
	}
}

// TestEngineValidatesOnCacheHit: validation must not depend on cache
// warmth. TableIdentity excludes ID numbering (analyzer-invisible), so
// a mis-numbered input hashing onto a warm valid problem must still be
// rejected exactly like a cold call would.
func TestEngineValidatesOnCacheHit(t *testing.T) {
	e := engine.New(engine.Config{})
	g := engGroup(t, 5)
	if _, err := e.Problem(g, platform.S2(), m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	bad := engGroup(t, 5)
	for i := range bad.Jobs {
		bad.Jobs[i].ID = 0
	}
	if _, err := e.Problem(bad, platform.S2(), m3e.Throughput); err == nil {
		t.Error("mis-numbered jobs accepted on the warm path")
	}
	badPf := platform.S2()
	badPf.SubAccels = append([]platform.SubAccel(nil), badPf.SubAccels...)
	badPf.SubAccels[1].ID = 0
	if _, err := e.Problem(g, badPf, m3e.Throughput); err == nil {
		t.Error("mis-numbered sub-accelerators accepted on the warm path")
	}
}

// TestEngineConcurrentAcquire: concurrent requests for one identity
// share a single build and all runs stay bit-identical to a cold run
// (exercised under -race in CI).
func TestEngineConcurrentAcquire(t *testing.T) {
	g, pf := engGroup(t, 9), platform.S2()
	prob, err := m3e.NewProblem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: 120}, 4)
	if err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{})
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	results := make([]m3e.Result, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, err := e.Problem(g, pf, m3e.Throughput)
			if err != nil {
				errs[c] = err
				return
			}
			results[c], errs[c] = h.RunCtx(context.Background(), optmagma.New(optmagma.Config{}),
				m3e.Options{Budget: 120}, 4)
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if results[c].BestFitness != cold.BestFitness || !reflect.DeepEqual(results[c].Curve, cold.Curve) {
			t.Errorf("client %d: concurrent shared run differs from cold run", c)
		}
	}
	if got := e.Stats().TablesBuilt; got != 1 {
		t.Errorf("TablesBuilt = %d, want 1 (concurrent acquisitions share one build)", got)
	}
}

// TestEngineMemoCapAndEviction: a problem's memo keeps its 16 newest
// finished searches, dropping the oldest first, and goes with its
// problem entry when the FIFO evicts it.
func TestEngineMemoCapAndEviction(t *testing.T) {
	e := engine.New(engine.Config{MaxProblems: 1})
	g, pf := engGroup(t, 3), platform.S2()
	h, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	key := func(seed int64) engine.MemoKey { return engine.MemoKey{Mapper: "MAGMA", Budget: 100, Seed: seed} }
	const entries = 17
	for seed := int64(0); seed < entries; seed++ {
		h.Remember(persist.MemoEntry{Key: key(seed), Asked: 100, Fitness: float64(seed)})
	}
	if _, _, ok := h.Recall(key(0)); ok {
		t.Error("the oldest of 17 entries survived a memo of 16")
	}
	for seed := int64(1); seed < entries; seed++ {
		v, cache, ok := h.Recall(key(seed))
		if !ok || v.Fitness != float64(seed) {
			t.Fatalf("seed %d: recalled %+v, %v; want fitness %d", seed, v, ok, seed)
		}
		if want := (m3e.CacheStats{Hits: 100, CrossHits: 100}); cache != want {
			t.Errorf("seed %d: hit counters %+v, want %+v", seed, cache, want)
		}
	}
	if _, _, ok := h.Recall(engine.MemoKey{Mapper: "MAGMA", Budget: 200, Seed: 1}); ok {
		t.Error("another budget recalled seed 1's entry")
	}
	st := e.Stats()
	if st.MemoHits != entries-1 || st.Searches != entries-1 || st.Cache.CrossHits != 100*(entries-1) {
		t.Errorf("stats after %d hits: %+v", entries-1, st)
	}

	// Concurrent identical searches each remember their result; the
	// first entry stays, and a later one neither replaces it nor pushes
	// an older entry out.
	last := key(entries - 1)
	h.Remember(persist.MemoEntry{Key: last, Asked: 100, Fitness: -1})
	if memo := e.Export()[0].Memo; len(memo) != 16 {
		t.Errorf("memo holds %d entries after a repeated Remember, want 16", len(memo))
	}
	if v, _, ok := h.Recall(last); !ok || v.Fitness != float64(entries-1) {
		t.Errorf("repeated Remember: recalled %+v, %v; want the first entry's fitness %d", v, ok, entries-1)
	}
	if _, _, ok := h.Recall(key(1)); !ok {
		t.Error("a repeated Remember evicted the oldest entry")
	}

	// A second problem evicts the first; the first comes back empty.
	if _, err := e.Problem(engGroup(t, 4), pf, m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	back, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := back.Recall(key(entries - 1)); ok {
		t.Error("an evicted problem's memo survived its eviction")
	}
}
