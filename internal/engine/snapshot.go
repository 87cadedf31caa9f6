package engine

import (
	"sort"

	"magma/internal/m3e"
	"magma/internal/persist"
)

// Export captures every problem's durable warm state — its stable table
// identity, objective and fingerprint→fitness entries in FIFO order —
// as the problem section of a persist.Snapshot. Snapshot-loaded stores
// still awaiting adoption (no matching request arrived yet) are
// exported too, so a restart-before-use never loses restored state.
//
// The export is a consistent cut per store, not across stores: runs may
// keep inserting while it is taken (each store is read-locked for its
// own copy), which only means late entries land in the next snapshot.
// Exported fitness is a pure function of the schedule, so whatever cut
// is captured restores to bit-identical answers.
func (e *Engine) Export() []persist.Problem {
	e.mu.Lock()
	type cut struct {
		key   problemKey
		store *m3e.CacheStore
	}
	cuts := make([]cut, 0, len(e.order)+len(e.restored))
	for _, key := range e.order {
		if st, ok := e.problems[key]; ok {
			cuts = append(cuts, cut{key: key, store: st.store})
		}
	}
	// The not-yet-adopted restored stores have no arrival order, so
	// sort them by identity: the snapshot bytes must not depend on map
	// iteration order (two exports of the same state stay identical).
	adopted := len(cuts)
	for key, store := range e.restored {
		cuts = append(cuts, cut{key: key, store: store})
	}
	sort.Slice(cuts[adopted:], func(i, j int) bool {
		a, b := cuts[adopted+i].key, cuts[adopted+j].key
		if a.table != b.table {
			if a.table.A != b.table.A {
				return a.table.A < b.table.A
			}
			return a.table.B < b.table.B
		}
		return a.obj < b.obj
	})
	e.mu.Unlock()

	// Copy the stores outside the engine lock: an export is O(entries)
	// per store and must not stall Problem()/Stats() while it runs.
	out := make([]persist.Problem, 0, len(cuts))
	for _, c := range cuts {
		out = append(out, persist.Problem{
			Table:     c.key.table,
			Objective: uint8(c.key.obj),
			Entries:   c.store.Export(),
		})
	}
	return out
}

// Restore loads snapshot problems into the pending-adoption map: each
// becomes a capacity-bounded CacheStore (entries replayed oldest-first,
// so overflow evicts exactly as live FIFO would) waiting for the first
// request with the matching table identity and objective. Restored
// entries carry run id 0, so every hit on them counts as a cross-run
// hit — a restarted server answering its repeat mix shows a nonzero
// cross-request hit rate from generation one.
//
// Restore is meant for boot, before traffic, but is safe at any time;
// a key that already has a live problem keeps the live store (the
// snapshot's entries for it are dropped — the live store is newer).
func (e *Engine) Restore(problems []persist.Problem) {
	for _, p := range problems {
		key := problemKey{table: p.Table, obj: m3e.Objective(p.Objective)}
		store := m3e.NewCacheStore(e.cfg.StoreSize)
		store.Import(p.Entries)

		e.mu.Lock()
		if _, live := e.problems[key]; !live {
			e.restored[key] = store
			e.stats.ProblemsRestored++
			e.stats.EntriesRestored += uint64(store.Len())
		}
		e.mu.Unlock()
	}
}

// NoteSnapshot records one successful durable snapshot write in the
// engine's counters (surfaced as snapshots_taken in server /stats).
func (e *Engine) NoteSnapshot() {
	e.mu.Lock()
	e.stats.SnapshotsTaken++
	e.mu.Unlock()
}
