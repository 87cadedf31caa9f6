package m3e

import (
	"math"
	"sync"
	"time"

	"magma/internal/encoding"
	"magma/internal/sim"
)

// DefaultCacheSize bounds the fitness cache when Options.CacheSize is
// zero. At the paper's 10K-sample budget the cache never evicts; the
// bound exists so long-lived streams (OptimizeStream, servers reusing a
// problem) stay at a few MB instead of growing without limit.
const DefaultCacheSize = 1 << 16

// CacheStats counts how the fitness cache and the runner's pruning pass
// resolved evaluations.
type CacheStats struct {
	// Hits are evaluations answered with an already-known exact fitness
	// instead of a simulation: store hits, plus the verbatim re-asks the
	// runner's pruning pass settled from the previous batch (optimizers
	// implementing ReaskTracker, cache on or off). Re-asks never reach
	// the store, so they are never CrossHits.
	Hits uint64
	// CrossHits is the subset of Hits answered by an entry inserted by a
	// *different* run sharing the same CacheStore — the cross-group /
	// cross-request reuse a long-lived engine provides. Always zero when
	// the store is private to one run.
	CrossHits uint64
	// Deduped are in-batch duplicates folded onto a representative
	// evaluated in the same batch.
	Deduped uint64
	// Misses are evaluations actually dispatched to the worker pool.
	Misses uint64
	// Invalid are genomes that failed validation (scored -Inf without
	// being decoded or dispatched).
	Invalid uint64
	// FullFP counts the genomes the cache fingerprinted: a full decode
	// and hash (Genome.FingerprintInto), its only fingerprint route.
	// IncrementalFP and CleanFP counted two retired fast routes and
	// always read 0; they stay for wire and benchmark compatibility.
	FullFP        uint64
	IncrementalFP uint64
	CleanFP       uint64
	// BoundChecked counts genomes whose analytical fitness upper bound
	// the runner's pruning pass tested against a generation elite floor;
	// BoundPruned the subset whose bound already missed the floor, so
	// they were never decoded, fingerprinted or simulated. BoundPruned is
	// a subset of Misses: a pruned genome counts as a miss, it just pays
	// the roofline arithmetic instead of Algorithm 1.
	//
	// With the cache off, the pruning pass keeps the counters alone:
	// Hits are the re-asks it settled, Misses every other valid genome
	// (pruned or simulated), Invalid the genomes that failed validation,
	// and Deduped and the fingerprint counters stay zero. Either way
	// Hits+Deduped+Misses+Invalid equals Result.Asked, and with the
	// cache on no settled genome is fingerprinted:
	// FullFP+BoundPruned+Invalid+(settled re-asks) equals Result.Asked.
	BoundChecked uint64
	BoundPruned  uint64
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

// CrossHitRate is the fraction of decodable evaluations answered by an
// entry another run inserted: CrossHits / (Hits+Deduped+Misses). It is
// the shared-store payoff a single run can never produce on its own.
func (s CacheStats) CrossHitRate() float64 {
	total := s.Hits + s.Deduped + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.CrossHits) / float64(total)
}

// FastFPRate is the fraction of fingerprints that skipped the full
// decode+hash: (IncrementalFP+CleanFP) / (FullFP+IncrementalFP+CleanFP).
// Always 0 now that the cache has one fingerprint route; kept for wire
// and benchmark compatibility.
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
}

// storeEntry is one memoized fitness plus the id of the run that
// inserted it (for cross-run hit accounting).
type storeEntry struct {
	fit float64
	run uint64
}

// CacheStore is the sharable storage behind FitnessCache: a bounded
// fingerprint→fitness map that may outlive any single run and be shared
// by several concurrent ones. Fitness is a pure function of the decoded
// schedule, so a stored float64 equals a recomputed one no matter which
// run inserted it — sharing a store across runs of the *same problem*
// (same group content, platform and objective) never changes results,
// only wall-clock. Never share a store across distinct problems: the
// fingerprint does not cover the dimensions, and fitness depends on the
// table and objective (internal/engine keys stores by table identity ×
// objective for exactly this reason).
//
// All methods are safe for concurrent use. Eviction is FIFO over
// insertion order; under concurrency the interleaving of inserts can
// vary, which may change *which* entries a later lookup finds (a hit
// becoming a miss re-simulates the identical value), but never the
// fitness a run observes.
type CacheStore struct {
	mu       sync.RWMutex
	capacity int
	entries  map[encoding.Fingerprint]storeEntry
	// fifo is the eviction ring: once len(entries) reaches capacity the
	// oldest insertion is dropped. FIFO keeps eviction deterministic
	// (map iteration order never leaks into behavior) and O(1).
	fifo []encoding.Fingerprint
	next int
	runs uint64 // run-id allocator for cross-run hit accounting
}

// NewCacheStore builds a store bounded to capacity entries (<= 0 means
// DefaultCacheSize).
func NewCacheStore(capacity int) *CacheStore {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &CacheStore{
		capacity: capacity,
		entries:  make(map[encoding.Fingerprint]storeEntry),
		// fifo grows by append up to capacity; preallocating the whole
		// ring would charge every short run the full bound (~1 MiB at
		// the default capacity).
	}
}

// Len returns the number of cached fingerprints (bounded by capacity).
func (s *CacheStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// beginRun allocates a run id, distinguishing this run's insertions
// from earlier ones when accounting cross-run hits.
func (s *CacheStore) beginRun() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	return s.runs
}

// insertLocked stores one fingerprint, evicting FIFO at capacity. The
// caller holds s.mu. A fingerprint already present keeps its original
// slot in the ring (the incoming value is bit-identical by purity).
func (s *CacheStore) insertLocked(fp encoding.Fingerprint, v float64, run uint64) {
	if _, ok := s.entries[fp]; ok {
		return
	}
	if len(s.fifo) < s.capacity {
		s.entries[fp] = storeEntry{fit: v, run: run}
		s.fifo = append(s.fifo, fp)
		return
	}
	delete(s.entries, s.fifo[s.next])
	s.entries[fp] = storeEntry{fit: v, run: run}
	s.fifo[s.next] = fp
	s.next++
	if s.next == len(s.fifo) {
		s.next = 0
	}
}

// FitnessCache memoizes genome fitness by schedule fingerprint and
// dedups Ask batches before they reach the worker pool. It exploits the
// two redundancies of the search stream: optimizers re-Ask schedules
// they already evaluated (MAGMA re-submits its elites verbatim every
// generation), and the continuous priority genome collapses to per-core
// rank order, so distinct genomes frequently decode to the identical
// mapping.
//
// Results are bit-identical to the uncached path at any worker count:
// evaluation is a pure function of the decoded schedule, so a cached
// float64 equals a recomputed one, and fitness is still written at its
// batch index.
//
// Behind the runner's pruning pass (optimizers implementing both
// EliteSelector and ReaskTracker) the cache sees only the slots the pass
// left open: verbatim re-asks already carry their parent's exact
// fitness and pruned genomes their bound. Every slot it does see is
// fingerprinted the one way, by a full decode and hash.
//
// A FitnessCache belongs to one run at a time (its batch scratch is
// reused across Evaluate calls); like an Evaluator it must not be
// shared between goroutines. Its backing CacheStore, however, *is*
// concurrency-safe and may be shared: bind several runs' caches to one
// store with NewFitnessCacheWith and entries flow between them. The
// cache is bound to one Problem — fitness depends on the group,
// platform and objective, so never reuse a cache (or share a store)
// across distinct problems. To carry a cache's grown scratch across
// sequential runs of the same problem, Rebind it between runs (the
// engine's scratch free-list does exactly this).
type FitnessCache struct {
	p     *Problem
	store *CacheStore
	run   uint64 // this run's id within the store

	stats  CacheStats
	phases *PhaseTimings // optional; set by Run per run

	// Per-batch scratch, grown once and reused. maps[i] holds the
	// decoded schedule of batch[i] — the fingerprint pass is the only
	// decode per genome; representatives are simulated straight from it.
	maps []sim.Mapping
	fps  []encoding.Fingerprint

	mode    []uint8 // batch index -> fingerprint outcome (fp* constants)
	class   []int   // batch index -> representative slot, or -1 if resolved
	charge  []bool  // batch index -> consumes effective budget (miss/invalid)
	reps    []int   // representative slot -> batch index
	repFit  []float64
	inBatch map[encoding.Fingerprint]int // fingerprint -> representative slot
}

// Fingerprint outcomes for mode[].
const (
	fpInvalid = iota
	fpFull
	fpSettled // settled by the runner's pruning pass (re-ask, invalid or pruned)
)

// NewFitnessCache builds a cache for the problem backed by a private
// store. capacity <= 0 means DefaultCacheSize.
func NewFitnessCache(p *Problem, capacity int) *FitnessCache {
	return NewFitnessCacheWith(p, NewCacheStore(capacity))
}

// NewFitnessCacheWith builds a run-local cache view over a shared
// store. The store must be dedicated to this problem's identity (group
// content × platform × objective); the run-local scratch and counters
// stay private while entries are shared.
func NewFitnessCacheWith(p *Problem, store *CacheStore) *FitnessCache {
	return &FitnessCache{
		p:       p,
		store:   store,
		run:     store.beginRun(),
		inBatch: make(map[encoding.Fingerprint]int),
	}
}

// Rebind prepares a cache for a fresh run on the same problem and
// store: it allocates a new run id and clears the counters and per-run
// hook, while keeping every grown scratch buffer (decoded mappings). A
// long-lived engine Rebinds free-listed caches instead of rebuilding
// them, so the scratch stays warm across requests.
func (c *FitnessCache) Rebind() {
	c.run = c.store.beginRun()
	c.stats = CacheStats{}
	c.phases = nil
}

// Stats returns the counters accumulated so far.
func (c *FitnessCache) Stats() CacheStats { return c.stats }

// ChargedAt reports whether batch index i of the most recent Evaluate
// call consumed effective budget: true for schedules that reached the
// simulator (distinct, uncached) and for invalid genomes; false for
// cache hits and in-batch duplicates. The runner's EffectiveBudget mode
// reads this to charge the budget only for distinct schedules.
func (c *FitnessCache) ChargedAt(i int) bool { return c.charge[i] }

// Len returns the number of fingerprints in the backing store.
func (c *FitnessCache) Len() int { return c.store.Len() }

// Evaluate scores batch[i] into fit[i] for every i, like Pool.Evaluate,
// but dispatches only one representative per schedule-equivalence class
// and none for schedules already cached. Three phases:
//
//  1. parallel: validate + fingerprint every genome (index-addressed,
//     so deterministic at any worker count) by a full decode and hash,
//     leaving maps[i] holding the decoded schedule;
//  2. serial: group by fingerprint — cache hit, in-batch duplicate, or
//     new representative (one store read-lock spans the whole scan);
//  3. parallel: simulate the representatives from their already-decoded
//     mappings, then scatter fitness to every class member and insert
//     the new results into the store (one write-lock for the batch).
func (c *FitnessCache) Evaluate(pool *Pool, batch []encoding.Genome, fit []float64) {
	c.evaluate(pool, batch, fit, nil)
}

// evaluate is Evaluate behind the runner's pruning pass. A nil pre
// means nothing is known about the batch. Otherwise the pass has
// validated every genome and pre[i] is its slot state: every slot it
// did not leave open (re-asks, invalid and pruned genomes) keeps the
// fitness the pass wrote and is neither fingerprinted, counted nor
// stored — a pruned slot's fitness is a bound, never an exact value —
// and the open slots skip re-validation.
func (c *FitnessCache) evaluate(pool *Pool, batch []encoding.Genome, fit []float64, pre []uint8) {
	tFP := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	c.grow(len(batch))
	c.fingerprintBatch(pool, batch, pre)

	c.reps = c.reps[:0]
	clear(c.inBatch)
	c.store.mu.RLock()
	for i := range batch {
		c.class[i] = -1
		c.charge[i] = true // constraint violations always consume budget
		switch c.mode[i] {
		case fpSettled:
			continue
		case fpInvalid:
			fit[i] = math.Inf(-1)
			c.stats.Invalid++
			continue
		}
		c.stats.FullFP++
		fp := c.fps[i]
		if e, ok := c.store.entries[fp]; ok {
			fit[i] = e.fit
			c.stats.Hits++
			if e.run != c.run {
				c.stats.CrossHits++
			}
			c.charge[i] = false
			continue
		}
		if slot, ok := c.inBatch[fp]; ok {
			c.class[i] = slot
			c.stats.Deduped++
			c.charge[i] = false
			continue
		}
		slot := len(c.reps)
		c.inBatch[fp] = slot
		c.reps = append(c.reps, i)
		c.class[i] = slot
		c.stats.Misses++
	}
	c.store.mu.RUnlock()
	if c.phases != nil {
		c.phases.FingerprintNs += time.Since(tFP).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	}

	tSim := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	pool.evaluateMapped(c.maps, c.reps, c.repFit[:len(c.reps)])

	for i := range batch {
		if slot := c.class[i]; slot >= 0 {
			fit[i] = c.repFit[slot]
		}
	}
	if len(c.reps) > 0 {
		c.store.mu.Lock()
		for slot, i := range c.reps {
			c.store.insertLocked(c.fps[i], c.repFit[slot], c.run)
		}
		c.store.mu.Unlock()
	}
	if c.phases != nil {
		c.phases.SimulateNs += time.Since(tSim).Nanoseconds() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	}
}

// fingerprintBatch is phase 1: validate, decode and fingerprint every
// genome across the pool. Every output (maps, fps, mode) is written at
// its batch index by exactly one worker, so the result is independent
// of worker scheduling.
func (c *FitnessCache) fingerprintBatch(pool *Pool, batch []encoding.Genome, pre []uint8) {
	nJobs, nAccels := c.p.NumJobs(), c.p.NumAccels()
	pool.each(len(batch), func(_ *Evaluator, i int) {
		if pre != nil {
			if pre[i] != slotOpen {
				c.mode[i] = fpSettled
				return
			}
		} else if err := batch[i].Validate(nJobs, nAccels); err != nil {
			c.mode[i] = fpInvalid
			return
		}
		c.fps[i] = batch[i].FingerprintInto(nAccels, &c.maps[i])
		c.mode[i] = fpFull
	})
}

// grow sizes the batch scratch for n genomes.
func (c *FitnessCache) grow(n int) {
	if cap(c.maps) < n {
		maps := make([]sim.Mapping, n)
		copy(maps, c.maps) // keep already-grown queue buffers
		c.maps = maps
		c.fps = make([]encoding.Fingerprint, n)
		c.mode = make([]uint8, n)
		c.class = make([]int, n)
		c.charge = make([]bool, n)
		c.repFit = make([]float64, n)
	}
	c.maps = c.maps[:n]
	c.fps = c.fps[:n]
	c.mode = c.mode[:n]
	c.class = c.class[:n]
	c.charge = c.charge[:n]
	c.repFit = c.repFit[:n]
}
