package engine

import (
	"magma/internal/m3e"
	"magma/internal/persist"
)

// Export captures every problem's memo of finished searches — keyed by
// its stable table identity and objective, problems oldest first — as
// the problem section of a persist.Snapshot. Problems with an empty
// memo carry nothing a restart could use and are left out. A problem
// Restore loaded is exported like any other, whether or not a request
// has built its table yet.
//
// The export is a consistent cut per problem, not across problems:
// searches may keep finishing while it is taken, which only means late
// entries land in the next snapshot. Memo entries are never mutated
// once remembered, so the cut shares them instead of copying.
func (e *Engine) Export() []persist.Problem {
	e.mu.Lock()
	keys := append([]problemKey(nil), e.order...)
	states := make([]*problemState, len(keys))
	for i, key := range keys {
		states[i] = e.problems[key]
	}
	e.mu.Unlock()

	var out []persist.Problem
	for i, st := range states {
		st.mu.Lock()
		memo := append([]persist.MemoEntry(nil), st.memo...)
		st.mu.Unlock()
		if len(memo) > 0 {
			out = append(out, persist.Problem{Table: keys[i].table, Objective: uint8(keys[i].obj), Memo: memo})
		}
	}
	return out
}

// Restore installs each snapshot problem with a memo as a problem entry
// whose analysis table is built by the first request with its table
// identity and objective. Until then the entry only holds its memo, at
// most the newest memoCap entries, and counts toward MaxProblems like
// any other; Export carries it over to the next snapshot. A restored
// entry answers its first exact repeat as a memo hit.
//
// Restore is meant for boot, before traffic, but is safe at any time;
// a problem that is already live keeps its own memo (the snapshot's
// entries for it are dropped — the live memo is newer).
func (e *Engine) Restore(problems []persist.Problem) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range problems {
		key := problemKey{table: p.Table, obj: m3e.Objective(p.Objective)}
		if _, live := e.problems[key]; live || len(p.Memo) == 0 {
			continue
		}
		memo := p.Memo[max(0, len(p.Memo)-memoCap):]
		e.addLocked(key).memo = append([]persist.MemoEntry(nil), memo...)
		e.stats.ProblemsRestored++
		e.stats.EntriesRestored += uint64(len(memo))
	}
}

// NoteSnapshot records one successful durable snapshot write in the
// engine's counters (surfaced as snapshots_taken in server /stats).
func (e *Engine) NoteSnapshot() {
	e.mu.Lock()
	e.stats.SnapshotsTaken++
	e.mu.Unlock()
}
