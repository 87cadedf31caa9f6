package engine_test

import (
	"errors"
	"reflect"
	"testing"

	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/fault"
	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
	"magma/internal/persist"
	"magma/internal/platform"
)

// remember runs one MAGMA search on h and remembers it under key.
func remember(t *testing.T, h *engine.ProblemHandle, key engine.MemoKey) persist.MemoEntry {
	t.Helper()
	res, err := h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: key.Budget}, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	e := persist.MemoEntry{Key: key, Method: res.Method, Asked: res.Asked, Fitness: res.BestFitness,
		Genome: res.Best, Curve: m3e.Curve{{V: res.BestFitness, N: res.Asked}}}
	h.Remember(e)
	return e
}

// TestEngineExportRestoreWarmFromBoot: a memo exported from one engine
// and restored into a fresh one answers the first repeat on the
// matching problem as a memo hit, before and after a re-export.
func TestEngineExportRestoreWarmFromBoot(t *testing.T) {
	g, pf := engGroup(t, 11), platform.S2()
	key := engine.MemoKey{Mapper: "MAGMA", Budget: 200, Seed: 3}

	a := engine.New(engine.Config{})
	ha, err := a.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	want := remember(t, ha, key)
	// A problem with an empty memo has nothing to export.
	if _, err := a.Problem(engGroup(t, 12), pf, m3e.Throughput); err != nil {
		t.Fatal(err)
	}
	exported := a.Export()
	if len(exported) != 1 || len(exported[0].Memo) != 1 {
		t.Fatalf("export: %+v, want 1 problem with 1 memo entry", exported)
	}

	b := engine.New(engine.Config{})
	b.Restore(exported)
	st := b.Stats()
	if st.ProblemsRestored != 1 || st.EntriesRestored != 1 {
		t.Fatalf("restore stats = %d problems / %d entries, want 1 / 1",
			st.ProblemsRestored, st.EntriesRestored)
	}
	// A restored problem no request has built yet survives a re-export:
	// a restart before any matching request arrives must not lose it.
	if re := b.Export(); !reflect.DeepEqual(re, exported) {
		t.Fatalf("re-export before any request = %+v, want %+v", re, exported)
	}

	hb, err := b.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	got, cache, ok := hb.Recall(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored memo recalled %+v, %v; want %+v", got, ok, want)
	}
	if cache.CrossHits != uint64(want.Asked) {
		t.Errorf("restored memo hit reports %+v, want %d cross hits", cache, want.Asked)
	}
	if st := b.Stats(); st.TablesBuilt != 1 || st.TablesReused != 0 || st.MemoHits != 1 {
		t.Errorf("stats after the first request = %+v, want one table built and one memo hit", st)
	}
}

// TestEngineRestoreDropsMisfits: a restored entry whose genome does not
// fit the problem its identity names is dropped when the first request
// builds the problem, so a memo hit never decodes a schedule of another
// shape; the entries that fit stay.
func TestEngineRestoreDropsMisfits(t *testing.T) {
	g, pf := engGroup(t, 11), platform.S2()
	a := engine.New(engine.Config{})
	ha, err := a.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	good := remember(t, ha, engine.MemoKey{Mapper: "MAGMA", Budget: 100, Seed: 1})
	bad := good
	bad.Key.Seed = 2
	bad.Genome = encoding.Genome{Accel: []int{0}, Prio: []float64{0.5}}
	snap := a.Export()
	snap[0].Memo = append(snap[0].Memo, bad)

	b := engine.New(engine.Config{})
	b.Restore(snap)
	hb, err := b.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := hb.Recall(bad.Key); ok {
		t.Error("an entry whose genome does not fit the problem was recalled")
	}
	if _, _, ok := hb.Recall(good.Key); !ok {
		t.Error("the fitting entry was dropped with the misfit")
	}
}

// TestEngineRestoreKeepsLiveMemo: restoring a snapshot whose key
// already has a live problem must not replace the (newer) live memo.
func TestEngineRestoreKeepsLiveMemo(t *testing.T) {
	g, pf := engGroup(t, 12), platform.S2()
	e := engine.New(engine.Config{})
	h, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.MemoKey{Mapper: "MAGMA", Budget: 100, Seed: 1}
	live := remember(t, h, key)
	snap := e.Export()
	snap[0].Memo[0].Fitness = -1
	e.Restore(snap) // same key, live problem present
	if st := e.Stats(); st.ProblemsRestored != 0 {
		t.Errorf("ProblemsRestored = %d after restoring over a live problem, want 0", st.ProblemsRestored)
	}
	if got, _, _ := h.Recall(key); got.Fitness != live.Fitness {
		t.Errorf("live memo entry replaced: fitness %v, want %v", got.Fitness, live.Fitness)
	}
}

// TestEngineMapperPanicIsolated: an injected mapper panic fails its own
// run with MapperPanicError (counted in stats), while the next run on
// the same handle — reusing the returned pool — is bit-identical to an
// undisturbed baseline.
func TestEngineMapperPanicIsolated(t *testing.T) {
	g, pf := engGroup(t, 13), platform.S2()

	// Baseline on a fresh engine.
	base := engine.New(engine.Config{})
	hb, err := base.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hb.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150}, 5)
	if err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{})
	h, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	fault.Enable(fault.M3EAsk, fault.Every(2, func() error {
		panic("injected mapper panic")
	}))
	_, err = h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150}, 5)
	fault.Reset()
	var mpe *m3e.MapperPanicError
	if !errors.As(err, &mpe) {
		t.Fatalf("injected panic surfaced as %v, want *MapperPanicError", err)
	}
	st := e.Stats()
	if st.MapperPanics != 1 {
		t.Errorf("MapperPanics = %d, want 1", st.MapperPanics)
	}
	if st.Searches != 0 {
		t.Errorf("panicked run counted as a completed search (Searches = %d)", st.Searches)
	}

	// The panicked run returned its pool; a clean same-seed run must
	// still match the baseline bit-for-bit.
	got, err := h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150}, 5)
	if err != nil {
		t.Fatalf("run after panic: %v", err)
	}
	if got.BestFitness != want.BestFitness || !reflect.DeepEqual(got.Curve, want.Curve) {
		t.Error("run after a mapper panic diverged from the baseline")
	}
	if st := e.Stats(); st.PoolsReused == 0 {
		t.Error("pool leased by the panicked run was not returned to the free-list")
	}
}
