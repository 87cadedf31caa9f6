package magma

import (
	"magma/internal/encoding"
	"magma/internal/models"
)

// WarmStore is the warm-start engine of §V-C. It remembers the best
// mappings found for previously solved tasks, keyed by task type
// (Vision / Language / Recommendation / Mix); when a new group of the
// same task type arrives, the stored solutions seed MAGMA's initial
// population instead of random initialization.
//
// Stored genomes are only reusable across groups of the same size (the
// encoding is positional); SeedsFor filters accordingly.
type WarmStore struct {
	byTask map[models.Task][]encoding.Genome
	limit  int
}

// NewWarmStore builds a store retaining at most `limit` genomes per task
// type (oldest evicted first). limit <= 0 means 8.
func NewWarmStore(limit int) *WarmStore {
	if limit <= 0 {
		limit = 8
	}
	return &WarmStore{byTask: make(map[models.Task][]encoding.Genome), limit: limit}
}

// Record stores a solved mapping for a task type.
func (w *WarmStore) Record(task models.Task, g encoding.Genome) {
	s := append(w.byTask[task], g.Clone())
	if len(s) > w.limit {
		s = s[len(s)-w.limit:]
	}
	w.byTask[task] = s
}

// SeedsFor returns stored genomes compatible with a new problem of the
// given task type and group size. The newest solutions come first.
func (w *WarmStore) SeedsFor(task models.Task, groupSize int) []encoding.Genome {
	var out []encoding.Genome
	stored := w.byTask[task]
	for i := len(stored) - 1; i >= 0; i-- {
		if stored[i].NumJobs() == groupSize {
			out = append(out, stored[i].Clone())
		}
	}
	return out
}

// Known reports whether the store holds any solution for the task type
// (i.e. whether the warm-start engine takes over from random init).
func (w *WarmStore) Known(task models.Task) bool { return len(w.byTask[task]) > 0 }
