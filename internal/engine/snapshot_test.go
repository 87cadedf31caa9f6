package engine_test

import (
	"errors"
	"reflect"
	"testing"

	"magma/internal/engine"
	"magma/internal/fault"
	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
)

// TestEngineExportRestoreWarmFromBoot: warm state exported from one
// engine and restored into a fresh one answers the first run on the
// matching problem with cross-run hits from generation one, with
// bit-identical results.
func TestEngineExportRestoreWarmFromBoot(t *testing.T) {
	g, pf := engGroup(t, 11), platform.S2()

	a := engine.New(engine.Config{})
	ha, err := a.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ha.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 200, Store: ha.Store()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	exported := a.Export()
	if len(exported) != 1 || len(exported[0].Entries) == 0 {
		t.Fatalf("export: %d problems, first with %d entries; want 1 problem with entries",
			len(exported), len(exported[0].Entries))
	}

	b := engine.New(engine.Config{})
	b.Restore(exported)
	st := b.Stats()
	if st.ProblemsRestored != 1 || st.EntriesRestored == 0 {
		t.Fatalf("restore stats = %d problems / %d entries, want 1 / >0",
			st.ProblemsRestored, st.EntriesRestored)
	}
	// Pending (unadopted) state must survive a re-export — a restart
	// before any matching request arrives must not lose it.
	if re := b.Export(); len(re) != 1 || len(re[0].Entries) != len(exported[0].Entries) {
		t.Fatal("pending restored state missing from re-export")
	}

	hb, err := b.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hb.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 200, Store: hb.Store()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestFitness != want.BestFitness || !reflect.DeepEqual(got.Curve, want.Curve) {
		t.Error("restored-engine run diverged from the original")
	}
	if got.Cache.CrossHits == 0 {
		t.Error("first run on a restored problem reports no cross-run hits")
	}
}

// TestEngineRestoreKeepsLiveStore: restoring a snapshot whose key
// already has a live problem must not replace the (newer) live store.
func TestEngineRestoreKeepsLiveStore(t *testing.T) {
	g, pf := engGroup(t, 12), platform.S2()
	e := engine.New(engine.Config{})
	h, err := e.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 100, Store: h.Store()}, 1); err != nil {
		t.Fatal(err)
	}
	snap := e.Export()
	e.Restore(snap) // same key, live problem present
	if st := e.Stats(); st.ProblemsRestored != 0 {
		t.Errorf("ProblemsRestored = %d after restoring over a live problem, want 0", st.ProblemsRestored)
	}
}

// TestEngineMapperPanicIsolated: an injected mapper panic fails its own
// run with MapperPanicError (counted in stats), while the next run on
// the same handle — reusing the returned pool and cache scratch — is
// bit-identical to an undisturbed baseline.
func TestEngineMapperPanicIsolated(t *testing.T) {
	g, pf := engGroup(t, 13), platform.S2()

	// Baseline on a fresh engine.
	base := engine.New(engine.Config{})
	hb, err := base.Problem(g, pf, m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hb.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150, Store: hb.Store()}, 5)
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
	_, err = h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150, Store: h.Store()}, 5)
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

	// The panicked run left entries in the shared store (its completed
	// generations are valid memo state) and returned its pool/scratch;
	// a clean same-seed run must still match the baseline bit-for-bit.
	got, err := h.Run(optmagma.New(optmagma.Config{}), m3e.Options{Budget: 150, Store: h.Store()}, 5)
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
