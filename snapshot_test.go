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
// and answer the same request bit-identically with cross-request hits
// from generation one.
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
	if st := b.Stats(); st.ProblemsRestored == 0 || st.EntriesRestored == 0 {
		t.Fatalf("restore stats = %+v, want restored problems and entries", st)
	}
	got, err := b.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness != want.Fitness || !reflect.DeepEqual(got.Genome, want.Genome) ||
		!reflect.DeepEqual(got.Curve, want.Curve) {
		t.Error("restored Solver's schedule diverged from the original")
	}
	if got.Cache.CrossHits == 0 {
		t.Error("restored Solver answered with zero cross-request hits")
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
// so those values must not be persisted as exact. The snapshot carries
// only simulated entries (Misses − BoundPruned), and a restored Solver
// answers the same request bit-identically to a cold run, proving no
// bound ever comes back as a store hit.
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
	want := pruned.Cache.Misses - pruned.Cache.BoundPruned
	if st := b.Stats(); st.EntriesRestored != want {
		t.Errorf("EntriesRestored = %d, want %d (Misses %d − BoundPruned %d): a bound-assigned fitness leaked into the snapshot",
			st.EntriesRestored, want, pruned.Cache.Misses, pruned.Cache.BoundPruned)
	}

	cold, err := NewSolver(SolverOptions{}).Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := b.Optimize(wl.Groups[0], pf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSchedules(restored, cold) {
		t.Error("the run on the restored Solver diverged from a cold run")
	}
	if sims := restored.Cache.Misses - restored.Cache.BoundPruned; sims != 0 {
		t.Errorf("the restored Solver re-simulated %d schedules; every simulated one was snapshotted", sims)
	}
	if restored.Cache.CrossHits == 0 {
		t.Error("restored Solver answered with zero cross-request hits")
	}
	if !sameSchedules(pruned, cold) {
		t.Error("the snapshotted run diverged from a cold run")
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
