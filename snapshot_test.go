package magma

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"magma/internal/persist"
)

// TestSolverSnapshotRestoreRoundTrip is the crash/restart contract end
// to end: optimize, snapshot to disk, "restart" into a fresh Solver,
// and answer the same MAGMA request bit-identically as a memo hit that
// runs no generation and simulates nothing.
func TestSolverSnapshotRestoreRoundTrip(t *testing.T) {
	wl := testWorkload(t, Mix, 16, 16, 31)
	pf := PlatformS2()
	opts := Options{Budget: 300, Seed: 9, Cache: true}

	a := NewSolver(SolverOptions{})
	want, err := a.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Warm().Record(Mix, want)

	path := filepath.Join(t.TempDir(), "solver.snap")
	if err := a.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.SnapshotsTaken != 1 {
		t.Errorf("SnapshotsTaken = %d, want 1", st.SnapshotsTaken)
	}

	b := NewSolver(SolverOptions{})
	if err := b.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.ProblemsRestored != 1 || st.EntriesRestored != 1 {
		t.Fatalf("restore stats = %+v, want 1 restored problem with 1 memo entry", st)
	}
	got, err := b.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Error("restored Solver's schedule diverged from the original")
	}
	if st := b.Stats(); st.MemoHits != 1 {
		t.Errorf("restored Solver answered the repeat with %d memo hits, want 1", st.MemoHits)
	}
	if c := got.Cache; c.Misses != 0 || c.CrossHits != uint64(want.Asked) || got.Phases.Generations != 0 {
		t.Errorf("restored memo answer reports %+v over %d generations, want %d cross hits and nothing run",
			c, got.Phases.Generations, want.Asked)
	}
	if seeds := b.Warm().Seeds(Mix, 16); len(seeds) != 1 ||
		!reflect.DeepEqual(seeds[0].Genome, want.Genome) {
		t.Error("warm-start seeds did not survive the snapshot round trip")
	}
}

// TestSolverSnapshotWriterRoundTrip drives the io.Writer/Reader API
// (Snapshot/Restore/RestoreSolver) rather than the file helpers.
func TestSolverSnapshotWriterRoundTrip(t *testing.T) {
	wl := testWorkload(t, Vision, 16, 16, 32)
	pf := PlatformS1()
	a := NewSolver(SolverOptions{})
	if _, err := a.Optimize(wl.Groups[0], pf, Options{Budget: 150, Seed: 2, Cache: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSolver(bytes.NewReader(buf.Bytes()), SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := b.Optimize(wl.Groups[0], pf, Options{Budget: 150, Seed: 2, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Cache.CrossHits == 0 {
		t.Error("RestoreSolver boot answered with zero cross-request hits")
	}
}

// TestSnapshotExcludesBoundAssignedFitness: genomes the pruning pass
// settles get their analytical bound as fitness, never a simulation —
// so no such value may come back from a snapshot. A memo entry holds a
// finished search's best schedule and best-so-far curve, which no bound
// reaches, so the restored answer equals a cold run bit for bit.
func TestSnapshotExcludesBoundAssignedFitness(t *testing.T) {
	wl := testWorkload(t, Mix, 16, 16, 35)
	// Compute-dominated bandwidth: the per-core roofline discriminates
	// placements, so the pass actually prunes (see internal/m3e).
	pf := PlatformS2().WithBW(1e4)
	opts := Options{Budget: 800, Seed: 7, Cache: true}

	a := NewSolver(SolverOptions{})
	pruned, err := a.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cache.BoundPruned == 0 {
		t.Fatal("the run pruned nothing; the test needs a pruning workload")
	}

	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSolver(bytes.NewReader(buf.Bytes()), SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.EntriesRestored != 1 {
		t.Errorf("EntriesRestored = %d, want the 1 finished search", st.EntriesRestored)
	}

	cold, err := NewSolver(SolverOptions{}).Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := b.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !identical(restored, cold) {
		t.Error("the memo answer on the restored Solver diverged from a cold run")
	}
	if restored.Cache.Misses != 0 || restored.Phases.Generations != 0 {
		t.Errorf("the restored Solver ran the search again: %+v", restored.Cache)
	}
	if !identical(pruned, cold) {
		t.Error("the snapshotted run diverged from a cold run")
	}
}

// TestSnapshotSkipsRegisteredMappers: a Registered name may mean other
// code in the process that restores a snapshot, so a Registered
// mapper's search is never written, and an entry under a name that is
// not built in is never restored.
func TestSnapshotSkipsRegisteredMappers(t *testing.T) {
	registerUniform(t)
	g, pf := testGroup(t, Mix, 16), PlatformS2()
	a := NewSolver(SolverOptions{})
	for _, mapper := range []string{"test-uniform", "MAGMA"} {
		if _, err := a.Optimize(g, pf, Options{Mapper: mapper, Budget: 64, Seed: 1, Cache: true}); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.buildSnapshot()
	if len(snap.Problems) != 1 || len(snap.Problems[0].Memo) != 1 || snap.Problems[0].Memo[0].Key.Mapper != "MAGMA" {
		t.Fatalf("snapshot problems %+v, want one problem with MAGMA's entry only", snap.Problems)
	}

	// A file that does hold a Registered mapper's entry, as another
	// build might write it: only the built-in entry is restored.
	forged := snap.Problems[0].Memo[0]
	forged.Key.Mapper, forged.Method = "test-uniform", "test-uniform"
	snap.Problems[0].Memo = append(snap.Problems[0].Memo, forged)
	var buf bytes.Buffer
	if err := persist.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSolver(&buf, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.EntriesRestored != 1 {
		t.Errorf("EntriesRestored = %d, want only MAGMA's entry", st.EntriesRestored)
	}
	got, err := b.Optimize(g, pf, Options{Mapper: "test-uniform", Budget: 64, Seed: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Phases.Generations == 0 || b.Stats().MemoHits != 0 {
		t.Error("a Registered mapper's search was answered from a restored entry")
	}
}

// TestSolverRestoreRejectsCorruptSnapshot: torn, bit-flipped and
// version-bumped snapshots are rejected whole and the Solver stays
// usable — the cold-boot path, never a crash.
func TestSolverRestoreRejectsCorruptSnapshot(t *testing.T) {
	wl := testWorkload(t, Vision, 16, 16, 33)
	pf := PlatformS1()
	a := NewSolver(SolverOptions{})
	if _, err := a.Optimize(wl.Groups[0], pf, Options{Budget: 100, Seed: 1, Cache: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"truncated": full[:len(full)/2],
		"bit flip":  append(append([]byte(nil), full[:40]...), full[41:]...),
		"empty":     {},
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-20] ^= 0xff
	cases["payload flip"] = flipped
	versionBump := append([]byte(nil), full...)
	versionBump[9]++ // format version, bytes 8..11
	cases["version bump"] = versionBump

	for name, data := range cases {
		s := NewSolver(SolverOptions{})
		err := s.Restore(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s snapshot accepted", name)
		}
		var ve *persist.VersionError
		if name == "version bump" && !errors.As(err, &ve) {
			t.Errorf("version bump rejected as %v, want *persist.VersionError", err)
		}
		// Cold boot still works.
		if _, err := s.Optimize(wl.Groups[0], pf, Options{Budget: 60, Seed: 1, Cache: true}); err != nil {
			t.Fatalf("solver unusable after rejected %s snapshot: %v", name, err)
		}
		if st := s.Stats(); st.ProblemsRestored != 0 {
			t.Errorf("rejected %s snapshot still restored %d problems", name, st.ProblemsRestored)
		}
	}
}

// TestSolverRestoreFileMissingIsColdStart: a missing snapshot file is
// the ordinary first boot, reported via os.IsNotExist.
func TestSolverRestoreFileMissingIsColdStart(t *testing.T) {
	s := NewSolver(SolverOptions{})
	err := s.RestoreFile(filepath.Join(t.TempDir(), "absent.snap"))
	if !os.IsNotExist(err) {
		t.Fatalf("missing snapshot error = %v, want os.IsNotExist", err)
	}
}

// TestSolverSnapshotDuringConcurrentRuns snapshots repeatedly while
// searches mutate the stores — the race detector plus every snapshot
// parsing back cleanly are the assertions.
func TestSolverSnapshotDuringConcurrentRuns(t *testing.T) {
	wl := testWorkload(t, Mix, 16, 16, 34)
	pf := PlatformS2()
	s := NewSolver(SolverOptions{})

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := s.Optimize(wl.Groups[0], pf, Options{
					Budget: 120, Seed: int64(w*10 + i), Cache: true,
				}); err != nil {
					t.Errorf("optimize: %v", err)
					return
				}
			}
		}(w)
	}
	path := filepath.Join(t.TempDir(), "solver.snap")
	for i := 0; i < 10; i++ {
		if err := s.SnapshotFile(path); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		fresh := NewSolver(SolverOptions{})
		if err := fresh.RestoreFile(path); err != nil {
			t.Fatalf("snapshot %d does not restore: %v", i, err)
		}
	}
	wg.Wait()
}
