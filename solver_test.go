package magma

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

func testWorkload(t testing.TB, task Task, jobs, group int, seed int64) Workload {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{Task: task, NumJobs: jobs, GroupSize: group, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// sameSchedules compares two schedules bit-for-bit on everything the
// search determines.
func sameSchedules(a, b Schedule) bool {
	return a.Fitness == b.Fitness &&
		a.MakespanCycles == b.MakespanCycles &&
		a.ThroughputGFLOPs == b.ThroughputGFLOPs &&
		a.EnergyUnits == b.EnergyUnits &&
		reflect.DeepEqual(a.Mapping, b.Mapping) &&
		reflect.DeepEqual(a.Curve, b.Curve)
}

// TestSolverCrossRunDeterminism is the acceptance contract of the
// long-lived Solver: streams re-run on a reused Solver return schedules
// bit-identical to fresh per-call runs, while the memo answers the
// repeated search it may (CrossHits > 0): the first group's, the one
// search of the warm-started stream that no earlier group seeds.
func TestSolverCrossRunDeterminism(t *testing.T) {
	wl := testWorkload(t, Mix, 48, 16, 9)
	opts := StreamOptions{BudgetPerGroup: 100, Seed: 1, Cache: true, WarmStart: true}

	fresh, err := OptimizeStream(wl, PlatformS2(), opts)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSolver(SolverOptions{})
	sOpts := opts
	sOpts.Solver = s
	first, err := OptimizeStream(wl, PlatformS2(), sOpts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.OptimizeStream(wl, PlatformS2(), opts) // direct method form
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]StreamResult{"first": first, "second": second} {
		if len(got.Schedules) != len(fresh.Schedules) {
			t.Fatalf("%s: %d schedules, want %d", name, len(got.Schedules), len(fresh.Schedules))
		}
		for i := range got.Schedules {
			if !sameSchedules(got.Schedules[i], fresh.Schedules[i]) {
				t.Errorf("%s: group %d schedule differs from fresh per-call run", name, i)
			}
		}
		if got.ThroughputGFLOPs != fresh.ThroughputGFLOPs {
			t.Errorf("%s: stream throughput %v != fresh %v", name, got.ThroughputGFLOPs, fresh.ThroughputGFLOPs)
		}
	}
	if first.Cache.CrossHits != 0 {
		t.Errorf("first stream on a fresh Solver reports %d cross hits, want 0 (its groups are distinct)",
			first.Cache.CrossHits)
	}
	if second.Cache.CrossHits == 0 {
		t.Error("repeated stream on the reused Solver reports no cross-run hits")
	}
	st := s.Stats()
	if st.MemoHits != 1 {
		t.Errorf("MemoHits = %d, want 1 (the unseeded first group)", st.MemoHits)
	}
	if st.TablesBuilt != uint64(len(wl.Groups)) {
		t.Errorf("TablesBuilt = %d, want %d (one per distinct group)", st.TablesBuilt, len(wl.Groups))
	}
	if st.TablesReused == 0 {
		t.Error("no table reuse across repeated streams")
	}
}

// TestSolverConcurrentRequests drives the cmd/serve pattern directly:
// concurrent repeated requests against one shared Solver, checked
// bit-identical to a fresh per-call run (and raced in CI).
func TestSolverConcurrentRequests(t *testing.T) {
	wl := testWorkload(t, Vision, 32, 16, 3)
	opts := StreamOptions{BudgetPerGroup: 80, Seed: 2, Cache: true}
	fresh, err := OptimizeStream(wl, PlatformS1(), opts)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSolver(SolverOptions{})
	const clients = 6
	results := make([]StreamResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = s.OptimizeStream(wl, PlatformS1(), opts)
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		for i := range results[c].Schedules {
			if !sameSchedules(results[c].Schedules[i], fresh.Schedules[i]) {
				t.Errorf("client %d: group %d schedule differs from fresh run", c, i)
			}
		}
	}
	if st := s.Stats(); st.Cache.CrossHits == 0 {
		t.Error("six identical concurrent requests produced no cross-request hits")
	}
}

// TestSolverOptimizeAndCompare: the single-group entry points route
// through an explicit Solver and stay identical to the per-call facade.
func TestSolverOptimizeAndCompare(t *testing.T) {
	g := testGroup(t, Mix, 16)
	fresh, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	for rep := 0; rep < 2; rep++ {
		got, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Cache: true, Solver: s})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedules(got, fresh) {
			t.Errorf("rep %d: solver-backed Optimize differs from per-call facade", rep)
		}
	}
	if st := s.Stats(); st.Searches != 2 || st.Cache.CrossHits == 0 {
		t.Errorf("stats after two identical searches: %+v (want 2 searches, cross hits > 0)", st)
	}

	mappers := []string{"Herald-like", "MAGMA", "stdGA", "Random"}
	freshCmp, err := Compare(g, PlatformS2(), mappers, Options{Budget: 100, Seed: 6, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	gotCmp, err := Compare(g, PlatformS2(), mappers, Options{Budget: 100, Seed: 6, Cache: true, Solver: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := range freshCmp {
		if freshCmp[i].Mapper != gotCmp[i].Mapper || !sameSchedules(freshCmp[i], gotCmp[i]) {
			t.Errorf("rank %d: solver-backed Compare differs (%s vs %s)", i, freshCmp[i].Mapper, gotCmp[i].Mapper)
		}
	}
}

// TestSolverTuneMatchesPackageTune: Tune through a reused Solver equals
// the package-level form, every trial on the one analysis table.
func TestSolverTuneMatchesPackageTune(t *testing.T) {
	g := testGroup(t, Mix, 16)
	bestA, scoreA, err := Tune(g, PlatformS2(), 48, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	bestB, scoreB, err := s.Tune(g, PlatformS2(), 48, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scoreA != scoreB || !reflect.DeepEqual(bestA, bestB) {
		t.Errorf("solver Tune (%v, %v) != package Tune (%v, %v)", bestB, scoreB, bestA, scoreA)
	}
	if st := s.Stats(); st.TablesBuilt != 1 || st.TablesReused != 0 || st.Searches == 0 || st.Cache.CrossHits != 0 {
		t.Errorf("tuner stats %+v, want one table built, searches run and no cross-run hits", st)
	}
}

// TestSolverSharedWarm: SharedWarm chains warm starts across requests
// through the Solver's store — the store must fill, and results remain
// valid schedules (trajectories may legitimately differ from cold).
func TestSolverSharedWarm(t *testing.T) {
	wl := testWorkload(t, Recommendation, 32, 16, 4)
	s := NewSolver(SolverOptions{})
	opts := StreamOptions{BudgetPerGroup: 80, Seed: 3, WarmStart: true, SharedWarm: true, Solver: s}
	res, err := OptimizeStream(wl, PlatformS2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Warm().Known(Recommendation) {
		t.Error("SharedWarm stream did not record into the Solver's warm store")
	}
	for i, sched := range res.Schedules {
		if err := sched.Mapping.Validate(len(wl.Groups[i].Jobs), PlatformS2().NumAccels()); err != nil {
			t.Errorf("group %d: invalid mapping: %v", i, err)
		}
	}
	if got := s.Warm().Seeds(Recommendation, 16); len(got) == 0 {
		t.Error("no seeds retrievable for the recorded task/size")
	}
}

// TestWarmStoreSeedsSizeMismatch pins the §V-C compatibility rule: the
// store filters seeds by exact group size (the encoding is positional),
// and mismatched sizes yield nothing rather than unusable genomes.
func TestWarmStoreSeedsSizeMismatch(t *testing.T) {
	g16 := testGroup(t, Vision, 16)
	g12 := testGroup(t, Vision, 12)
	s16, err := Optimize(g16, PlatformS2(), Options{Budget: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s12, err := Optimize(g12, PlatformS2(), Options{Budget: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	store := NewWarmStore(0)
	store.Record(Vision, s16)
	store.Record(Vision, s12)

	for _, tc := range []struct {
		size, want int
	}{
		{16, 1}, // only the 16-job schedule
		{12, 1}, // only the 12-job schedule
		{20, 0}, // no stored schedule of this size
	} {
		seeds := store.Seeds(Vision, tc.size)
		if len(seeds) != tc.want {
			t.Errorf("Seeds(Vision, %d) = %d seeds, want %d", tc.size, len(seeds), tc.want)
		}
		for _, seed := range seeds {
			if seed.Genome.NumJobs() != tc.size {
				t.Errorf("Seeds(Vision, %d) returned a %d-job genome", tc.size, seed.Genome.NumJobs())
			}
		}
	}
	if seeds := store.Seeds(Language, 16); len(seeds) != 0 {
		t.Errorf("Seeds for an unseen task = %d, want 0", len(seeds))
	}

	// A mismatched seed passed directly to Optimize must be ignored, not
	// crash or poison the search (Optimize filters by size again).
	mixed := append(store.Seeds(Vision, 16), store.Seeds(Vision, 12)...)
	if _, err := Optimize(g16, PlatformS2(), Options{Budget: 32, Seed: 3, WarmStart: mixed}); err != nil {
		t.Errorf("Optimize with mixed-size warm seeds: %v", err)
	}
}

// TestCacheStatsAddUpForEveryMapper: every built-in search mapper
// reports counters that account for each genome it asked,
// Hits+Deduped+Misses+Invalid == Asked, whether it runs uncached or
// cached or is answered from the memo. Deduped and the fingerprint
// counters stay zero, and only a memo answer has cross-run hits.
func TestCacheStatsAddUpForEveryMapper(t *testing.T) {
	const budget = 40
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	registry.RLock()
	mappers := slices.Clone(registry.builtin)
	registry.RUnlock()
	for _, name := range mappers {
		s := NewSolver(SolverOptions{})
		for _, run := range []string{"uncached", "cached", "memo"} {
			got, err := Optimize(g, pf, Options{Mapper: name, Budget: budget, Seed: 2, Cache: run != "uncached", Solver: s})
			if err != nil {
				t.Fatalf("%s %s: %v", name, run, err)
			}
			c := got.Cache
			if got.Asked != budget || c.Hits+c.Deduped+c.Misses+c.Invalid != uint64(got.Asked) {
				t.Errorf("%s %s: counters %+v don't add up to %d asked (budget %d)", name, run, c, got.Asked, budget)
			}
			if c.Deduped+c.FullFP+c.IncrementalFP+c.CleanFP != 0 {
				t.Errorf("%s %s: retired counters fired: %+v", name, run, c)
			}
			if memo := run == "memo"; (c.CrossHits == uint64(got.Asked)) != memo || (c.Misses == 0) != memo {
				t.Errorf("%s %s: counters %+v, want cross-run hits exactly on the memo answer", name, run, c)
			}
		}
	}
}
