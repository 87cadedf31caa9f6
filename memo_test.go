package magma

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"magma/internal/fault"
)

// identical reports whether two schedules are equal in every field a
// search determines: all of them but the per-run counters and timings.
func identical(a, b Schedule) bool {
	a.Cache, a.Phases = CacheStats{}, PhaseTimings{}
	b.Cache, b.Phases = CacheStats{}, PhaseTimings{}
	return reflect.DeepEqual(a, b)
}

// TestSolverMemoRepeat: an exact repeat on one Solver is answered from
// the problem's memo: bit-identical to a fresh Solver's run, counted as
// a search whose every asked genome was a cross-run hit, with no
// generation run. Mutating a returned schedule leaves the next hit
// unchanged.
func TestSolverMemoRepeat(t *testing.T) {
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	opts := Options{Budget: 320, Seed: 4, Cache: true}
	fresh, err := Optimize(g, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	opts.Solver = s
	first, err := Optimize(g, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.MemoHits != 0 {
		t.Fatalf("first search reports %d memo hits", before.MemoHits)
	}
	for rep := 0; rep < 2; rep++ {
		hit, err := Optimize(g, pf, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !identical(hit, fresh) || !identical(hit, first) {
			t.Fatalf("rep %d: memo hit differs from a fresh run", rep)
		}
		want := CacheStats{Hits: uint64(hit.Asked), CrossHits: uint64(hit.Asked)}
		if hit.Cache != want || hit.Phases != (PhaseTimings{}) || hit.Partial {
			t.Errorf("rep %d: hit reports cache %+v, phases %+v, partial %v; want %+v, no phases, not partial",
				rep, hit.Cache, hit.Phases, hit.Partial, want)
		}
		// The caller owns what it is handed.
		hit.Genome.Accel[0] = -1
		hit.Genome.Prio[0] = -1
		hit.Mapping.Queues[0] = append(hit.Mapping.Queues[0][:0], -1)
		hit.Curve[0].V = -1
		hit.Curve[0].N++
	}
	st := s.Stats()
	if st.MemoHits != 2 || st.Searches != before.Searches+2 {
		t.Errorf("after two repeats: %d memo hits, %d searches; want 2, %d", st.MemoHits, st.Searches, before.Searches+2)
	}
	if got := st.Cache.CrossHits - before.Cache.CrossHits; got != uint64(2*first.Asked) {
		t.Errorf("repeats added %d cross hits to the engine, want %d", got, 2*first.Asked)
	}
	if st.PoolsBuilt+st.PoolsReused != before.PoolsBuilt+before.PoolsReused {
		t.Error("a memo hit leased an evaluation pool")
	}
}

// TestSolverMemoSkipsAbortedRuns: a run its context aborted is never
// remembered, so the next identical request runs the search in full.
func TestSolverMemoSkipsAbortedRuns(t *testing.T) {
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	s := NewSolver(SolverOptions{})
	opts := Options{Budget: 320, Seed: 5, Cache: true, Solver: s}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var asks atomic.Int64
	fault.Enable(fault.M3EAsk, func() error {
		if asks.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	part, err := OptimizeCtx(ctx, g, pf, opts)
	fault.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if !part.Partial {
		t.Fatal("cancelled search not marked Partial")
	}

	full, err := Optimize(g, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Phases.Generations == 0 || s.Stats().MemoHits != 0 {
		t.Fatalf("repeat of an aborted search: partial %v, %d generations, %d memo hits; want a full run",
			full.Partial, full.Phases.Generations, s.Stats().MemoHits)
	}
	fresh, err := Optimize(g, pf, Options{Budget: 320, Seed: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !identical(full, fresh) {
		t.Error("repeat of an aborted search differs from a fresh run")
	}
	if _, err := Optimize(g, pf, opts); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MemoHits; got != 1 {
		t.Errorf("the finished search was not remembered: %d memo hits, want 1", got)
	}
}

// TestSolverMemoBypass: a search with warm-start seeds or a Progress
// observer neither reads nor fills the memo, and an uncached search
// never touches it.
func TestSolverMemoBypass(t *testing.T) {
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	base := Options{Budget: 320, Seed: 6, Cache: true}
	bypasses := map[string]func(o *Options, seed Schedule){
		"uncached":   func(o *Options, _ Schedule) { o.Cache = false },
		"warm start": func(o *Options, seed Schedule) { o.WarmStart = []Schedule{seed} },
		"progress":   func(o *Options, _ Schedule) { o.Progress = func(Progress) {} },
	}
	seed, err := Optimize(g, pf, Options{Budget: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, bypass := range bypasses {
		// Reads: the plain run is remembered, the bypassing twin runs.
		s := NewSolver(SolverOptions{})
		plain := base
		plain.Solver = s
		if _, err := Optimize(g, pf, plain); err != nil {
			t.Fatal(err)
		}
		o := plain
		bypass(&o, seed)
		got, err := Optimize(g, pf, o)
		if err != nil {
			t.Fatal(err)
		}
		if got.Phases.Generations == 0 || s.Stats().MemoHits != 0 {
			t.Errorf("%s: answered from the memo (%d generations, %d memo hits)", name, got.Phases.Generations, s.Stats().MemoHits)
		}
		// Fills: after only the bypassing run, the plain run still runs.
		s = NewSolver(SolverOptions{})
		o.Solver, plain.Solver = s, s
		if _, err := Optimize(g, pf, o); err != nil {
			t.Fatal(err)
		}
		got, err = Optimize(g, pf, plain)
		if err != nil {
			t.Fatal(err)
		}
		if got.Phases.Generations == 0 || s.Stats().MemoHits != 0 {
			t.Errorf("%s: the bypassing run filled the memo", name)
		}
	}
}

// TestSolverMemoMissOnLargerBudget: the same seed on a larger budget is
// another search. It misses the memo and runs, with no cross-run hits,
// and returns exactly what a fresh Solver does.
func TestSolverMemoMissOnLargerBudget(t *testing.T) {
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	s := NewSolver(SolverOptions{})
	if _, err := Optimize(g, pf, Options{Budget: 320, Seed: 8, Cache: true, Solver: s}); err != nil {
		t.Fatal(err)
	}
	longer, err := Optimize(g, pf, Options{Budget: 640, Seed: 8, Cache: true, Solver: s})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Optimize(g, pf, Options{Budget: 640, Seed: 8, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().MemoHits != 0 || longer.Phases.Generations == 0 {
		t.Fatalf("a larger budget was answered from the memo (%d memo hits)", s.Stats().MemoHits)
	}
	if longer.Cache.CrossHits != 0 {
		t.Errorf("the longer search ran but reports %d cross-run hits", longer.Cache.CrossHits)
	}
	if !identical(longer, fresh) {
		t.Error("the longer search differs from a fresh Solver's run")
	}
}

// TestSolverMemoConcurrentRepeats: many goroutines repeating one search
// on one Solver (raced in CI) all get the fresh run's schedule.
func TestSolverMemoConcurrentRepeats(t *testing.T) {
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	opts := Options{Budget: 320, Seed: 9, Cache: true}
	fresh, err := Optimize(g, pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Solver = NewSolver(SolverOptions{})
	const clients, reps = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				got, err := Optimize(g, pf, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !identical(got, fresh) {
					t.Error("concurrent repeat differs from a fresh run")
					return
				}
				got.Genome.Accel[0] = -1 // the caller's copy
				got.Curve[0].V = -1
				got.Curve[0].N++
			}
		}()
	}
	wg.Wait()
	if st := opts.Solver.Stats(); st.Searches != clients*reps || st.MemoHits == 0 {
		t.Errorf("%d searches, %d memo hits; want %d searches, some hits", st.Searches, st.MemoHits, clients*reps)
	}
}
