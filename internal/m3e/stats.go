package m3e

// CacheStats counts how a search resolved its evaluations. Every path
// keeps the same counters with the same meaning, so
// Hits+Deduped+Misses+Invalid equals Result.Asked for every mapper,
// pruned or not. A search answered from its problem's memo of finished
// searches (engine.ProblemHandle.Recall) runs no generation: it reports
// every genome its remembered search asked as both a Hit and a
// CrossHit, and every other counter zero, so the identity holds for it
// too.
type CacheStats struct {
	// Hits are evaluations answered with an already-known exact fitness
	// instead of a simulation: the re-asks the runner's pruning pass
	// settled from the previous batch (optimizers implementing
	// ReaskTracker), or every genome of a memo answer.
	Hits uint64
	// CrossHits is the subset of Hits answered by a *different* search:
	// the genomes of a memo answer. A search that runs never has any.
	CrossHits uint64
	// Deduped always reads 0; it stays for wire and benchmark
	// compatibility.
	Deduped uint64
	// Misses are the valid genomes that were not hits: each was either
	// simulated or settled by a bound (BoundPruned).
	Misses uint64
	// Invalid are genomes that failed validation (scored -Inf without
	// being decoded or dispatched).
	Invalid uint64
	// FullFP, IncrementalFP and CleanFP always read 0; they stay for
	// wire and benchmark compatibility.
	FullFP        uint64
	IncrementalFP uint64
	CleanFP       uint64
	// BoundChecked counts genomes whose analytical fitness upper bound
	// the runner's pruning pass tested against a generation elite floor;
	// BoundPruned the subset it settled with a bound instead of a
	// simulation. BoundPruned is a subset of Misses: a pruned genome
	// counts as a miss, it just pays the bound's arithmetic instead of
	// Algorithm 1, so Misses − BoundPruned is the number of simulations.
	// A genome the roofline stage prunes is never decoded or simulated.
	BoundChecked uint64
	BoundPruned  uint64
	// VirtualPriced counts the virtual-time walks the pruning pass
	// started, whether they finished or halted at their cut: one per
	// genome that survived the roofline stage and whose roofline bound
	// still reached the running floor when its turn came. VirtualPruned
	// is the subset of BoundPruned the virtual-time stage settled, on its
	// roofline bound, a halted walk's partial top or a finished bracket's
	// top. Those genomes were never simulated.
	VirtualPriced uint64
	VirtualPruned uint64
}

// HitRate is the fraction of decodable evaluations avoided:
// (Hits+Deduped) / (Hits+Deduped+Misses). Zero when nothing ran.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Deduped + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Deduped) / float64(total)
}

// CrossHitRate is the fraction of decodable evaluations answered by
// another search: CrossHits / (Hits+Deduped+Misses). It is the payoff
// of a long-lived Solver's memo, which a single run can never produce
// on its own.
func (s CacheStats) CrossHitRate() float64 {
	total := s.Hits + s.Deduped + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.CrossHits) / float64(total)
}

// FastFPRate always reads 0 (see FullFP); kept for wire and benchmark
// compatibility.
func (s CacheStats) FastFPRate() float64 {
	total := s.FullFP + s.IncrementalFP + s.CleanFP
	if total == 0 {
		return 0
	}
	return float64(s.IncrementalFP+s.CleanFP) / float64(total)
}

// BoundPruneRate is the fraction of distinct candidates (Misses) whose
// simulation was replaced by their analytical bound: BoundPruned /
// Misses. Zero when the bound path is off or nothing was distinct.
func (s CacheStats) BoundPruneRate() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.BoundPruned) / float64(s.Misses)
}

// Add accumulates another run's counters (used by callers aggregating
// multiple searches, e.g. OptimizeStream).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.CrossHits += o.CrossHits
	s.Deduped += o.Deduped
	s.Misses += o.Misses
	s.Invalid += o.Invalid
	s.FullFP += o.FullFP
	s.IncrementalFP += o.IncrementalFP
	s.CleanFP += o.CleanFP
	s.BoundChecked += o.BoundChecked
	s.BoundPruned += o.BoundPruned
	s.VirtualPriced += o.VirtualPriced
	s.VirtualPruned += o.VirtualPruned
}
