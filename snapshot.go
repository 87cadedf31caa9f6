package magma

import (
	"io"
	"slices"

	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/persist"
)

// Snapshot serializes the Solver's durable warm state — every cached
// problem's memo of finished searches (keyed by stable table identity
// × objective) and the shared warm-start seeds — in the versioned,
// checksummed binary format of internal/persist. A Solver restored
// from the snapshot answers the first exact repeat of a remembered
// search as a memo hit, with no simulation and a result bit-identical
// to the search it stands for (a search is a pure function of its
// problem, mapper, budget and seed).
//
// Only searches of built-in mappers are written: a Registered name may
// mean different code in the process that restores the snapshot. The
// snapshot is a consistent cut per problem, safe to take while
// searches run. Ephemeral state — analysis tables, in-flight runs,
// reuse counters — is deliberately not persisted.
func (s *Solver) Snapshot(w io.Writer) error {
	if err := persist.Write(w, s.buildSnapshot()); err != nil {
		return err
	}
	s.eng.NoteSnapshot()
	return nil
}

// SnapshotFile writes a snapshot durably to path: serialize to a temp
// file in the same directory, fsync, rename over the destination — so a
// crash mid-snapshot leaves the previous snapshot intact, never a torn
// file. Counts in SolverStats.SnapshotsTaken on success.
func (s *Solver) SnapshotFile(path string) error {
	if err := persist.WriteAtomic(path, s.buildSnapshot()); err != nil {
		return err
	}
	s.eng.NoteSnapshot()
	return nil
}

func (s *Solver) buildSnapshot() *persist.Snapshot {
	snap := &persist.Snapshot{Problems: builtinMemos(s.eng.Export())}
	for _, t := range s.warm.export() {
		snap.Warm = append(snap.Warm, persist.WarmTask{Task: uint8(t.Task), Seeds: t.Seeds})
	}
	return snap
}

// Restore loads a snapshot into the Solver, normally at boot before
// traffic. Each restored problem waits keyed by table identity until a
// request with matching content builds its table; its memo then
// answers exact repeats of the remembered searches (every asked genome
// counts as a cross-run hit). Entries of mappers that are not built in
// are dropped, so a Registered name is never answered with another
// process's results. Warm-start seeds replay into the shared store
// oldest-first.
//
// A snapshot that is corrupt (torn write, bad checksum — persist.
// ErrCorrupt) or written under an incompatible format, RNG layout,
// simulator kernel or results layout (*persist.VersionError) is
// rejected whole and the Solver is left exactly as it was: the caller
// should log and boot cold. Stale layouts are never reinterpreted.
func (s *Solver) Restore(r io.Reader) error {
	snap, err := persist.Read(r)
	if err != nil {
		return err
	}
	s.load(snap)
	return nil
}

// RestoreFile is Restore from a snapshot file. A missing file satisfies
// os.IsNotExist — the ordinary cold start, distinguishable from a
// rejected snapshot.
func (s *Solver) RestoreFile(path string) error {
	snap, err := persist.ReadFile(path)
	if err != nil {
		return err
	}
	s.load(snap)
	return nil
}

func (s *Solver) load(snap *persist.Snapshot) {
	s.eng.Restore(builtinMemos(snap.Problems))
	tasks := make([]optmagma.ExportedTask, 0, len(snap.Warm))
	for _, wt := range snap.Warm {
		tasks = append(tasks, optmagma.ExportedTask{Task: models.Task(wt.Task), Seeds: wt.Seeds})
	}
	s.warm.import_(tasks)
}

// RestoreSolver builds a Solver and loads a snapshot into it — the
// one-call boot path for servers. On any restore error the partially
// built Solver is discarded and the error returned; boot a fresh
// NewSolver instead (cold start).
func RestoreSolver(r io.Reader, o SolverOptions) (*Solver, error) {
	s := NewSolver(o)
	if err := s.Restore(r); err != nil {
		return nil, err
	}
	return s, nil
}

// builtinMemos keeps, in place, the memo entries of built-in mappers
// and the problems left with any.
func builtinMemos(problems []persist.Problem) []persist.Problem {
	for i := range problems {
		problems[i].Memo = slices.DeleteFunc(problems[i].Memo, func(e persist.MemoEntry) bool {
			return !builtinMapper(e.Key.Mapper)
		})
	}
	return slices.DeleteFunc(problems, func(p persist.Problem) bool { return len(p.Memo) == 0 })
}

// export snapshots the warm store under its lock (deep copies).
func (w *WarmStore) export() []optmagma.ExportedTask {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inner.Export()
}

// import_ replays exported seeds under the lock, oldest first.
func (w *WarmStore) import_(tasks []optmagma.ExportedTask) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inner.Import(tasks)
}
