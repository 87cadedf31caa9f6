package m3e

import "magma/internal/persist"

// Export returns the store's entries as snapshot entries in FIFO
// insertion order, oldest first — the order that, replayed through
// Import, reproduces the store's eviction behavior. Run provenance is
// deliberately left out: run ids only distinguish insertions within one
// process lifetime. Safe for concurrent use: the snapshot is taken
// under the store's read lock, so it is a consistent cut even while
// runs keep inserting (entries landing after the cut simply belong to
// the next snapshot).
func (s *CacheStore) Export() []persist.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]persist.Entry, len(s.fifo))
	for k := range out {
		// The oldest entry sits at next, which stays 0 until the ring
		// wraps.
		fp := s.fifo[(s.next+k)%len(s.fifo)]
		out[k] = persist.Entry{FP: fp, Fitness: s.entries[fp].fit}
	}
	return out
}

// Import inserts previously exported entries, oldest first, attributing
// them to run id 0 — an id beginRun never allocates — so every hit on a
// restored entry counts as a cross-run hit, exactly like a hit on
// another live run's insertion. Inserting replays FIFO order: when the
// entries exceed this store's capacity the oldest are evicted first,
// preserving the bound invariant. Safe for concurrent use, though it is
// normally called on a fresh store before any run binds to it.
func (s *CacheStore) Import(entries []persist.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.insertLocked(e.FP, e.Fitness, 0)
	}
}
