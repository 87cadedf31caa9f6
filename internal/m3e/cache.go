package m3e

import (
	"math"
	"sync"
	"time"

	"magma/internal/encoding"
	"magma/internal/sim"
)

// DefaultCacheSize bounds a CacheStore built with capacity <= 0. At the
// paper's 10K-sample budget the cache never evicts; the bound exists so
// long-lived streams (OptimizeStream, servers reusing a problem) stay at
// a few MB instead of growing without limit.
const DefaultCacheSize = 1 << 16

// CacheStats counts how the fitness cache and the runner's pruning pass
// resolved evaluations. A search answered from its problem's memo of
// finished searches (engine.ProblemHandle.Recall) runs neither: it
// reports every genome its remembered search asked as both a Hit and a
// CrossHit, and every other counter zero, so the identities below hold
// for it too.
type CacheStats struct {
	// Hits are evaluations answered with an already-known exact fitness
	// instead of a simulation: exact store hits, plus the re-asks the
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
	// Misses are evaluations actually dispatched to the evaluator.
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
	// BoundPruned the subset it settled with a bound instead of a
	// simulation. BoundPruned is a subset of Misses: a pruned genome
	// counts as a miss, it just pays the bound's arithmetic instead of
	// Algorithm 1, so Misses − BoundPruned is the number of simulations.
	// A genome the roofline stage prunes is never decoded, fingerprinted
	// or simulated.
	//
	// With the cache off, the pruning pass keeps the counters alone:
	// Hits are the re-asks it settled, Misses every other valid genome
	// (pruned or simulated), Invalid the genomes that failed validation,
	// and Deduped and the fingerprint counters stay zero. Either way
	// Hits+Deduped+Misses+Invalid equals Result.Asked, and with the
	// cache on no settled genome is fingerprinted:
	// FullFP+BoundPruned−VirtualPruned+Invalid+(settled re-asks) equals
	// Result.Asked.
	BoundChecked uint64
	BoundPruned  uint64
	// VirtualPriced counts the virtual-time walks the pruning pass
	// started, whether they finished or halted at their cut: one per
	// genome that survived the roofline stage, whose roofline bound still
	// reached the running floor when its turn came, and whose fitness the
	// store did not hold (with the cache on, one per in-batch duplicate
	// class). VirtualPruned is the subset of BoundPruned the virtual-time
	// stage settled, on its roofline bound, a halted walk's partial top
	// or a finished bracket's top. Those genomes were never simulated;
	// with the cache on they were fingerprinted first.
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
	s.VirtualPriced += o.VirtualPriced
	s.VirtualPruned += o.VirtualPruned
}

// storeEntry is one memoized fitness plus the id of the run that
// inserted it (for cross-run hit accounting).
type storeEntry struct {
	fit float64
	run uint64
}

// CacheStore is the sharable storage behind the fitness cache: a bounded
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
// A store holds exact fitness values only: a value the pruning pass
// settled is an upper bound, never a fitness, so it never enters one
// (see pruner).
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
	// fifo is the eviction ring, holding every key of entries once: once
	// it holds capacity of them the oldest insertion is dropped. FIFO
	// keeps eviction deterministic (map iteration order never leaks into
	// behavior) and O(1).
	fifo []encoding.Fingerprint
	next int
	runs uint64 // run-id allocator for cross-run hit accounting
}

// NewCacheStore builds a store bounded to capacity fitness values (<= 0
// means DefaultCacheSize).
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

// Len returns the number of cached fitness values, at most capacity.
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

// insertLocked stores the fitness of one fingerprint, evicting FIFO at
// capacity. The caller holds s.mu. A fingerprint whose fitness is
// already present keeps its original slot in the ring (the incoming
// value is bit-identical by purity).
func (s *CacheStore) insertLocked(fp encoding.Fingerprint, v float64, run uint64) {
	if _, ok := s.entries[fp]; ok {
		return
	}
	if len(s.fifo) < s.capacity {
		s.fifo = append(s.fifo, fp)
	} else {
		delete(s.entries, s.fifo[s.next])
		s.fifo[s.next] = fp
		s.next++
		if s.next == len(s.fifo) {
			s.next = 0
		}
	}
	s.entries[fp] = storeEntry{fit: v, run: run}
}

// fitnessCache memoizes genome fitness by schedule fingerprint and
// dedups Ask batches before they reach the evaluator. It exploits the
// two redundancies of the search stream: optimizers re-Ask schedules
// they already evaluated (MAGMA re-submits its elites verbatim every
// generation), and the continuous priority genome collapses to per-core
// rank order, so distinct genomes frequently decode to the identical
// mapping.
//
// Results are bit-identical to the uncached path: evaluation is a pure
// function of the decoded schedule, so a cached
// float64 equals a recomputed one, and fitness is still written at its
// batch index.
//
// Behind the runner's pruning pass (optimizers implementing both
// EliteSelector and ReaskTracker) the cache sees only the slots the pass
// left open: re-asks already carry their parent's exact
// fitness and pruned genomes their bound. Every slot it does see is
// fingerprinted the one way, by a full decode and hash, and looked up
// before the pass's virtual-time stage settles what the store does not
// answer (see settle).
//
// The cache is the run-local view of a CacheStore: its counters and
// batch scratch are private, its entries are the store's. Each Pool owns
// one and rebinds it to every cached run it serves (see cacheFor), so
// the grown scratch outlives the run while counters and provenance never
// do. Like an Evaluator it must not be shared between goroutines.
type fitnessCache struct {
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

	mode    []uint8                      // batch index -> fingerprint outcome (fp* constants)
	class   []int                        // batch index -> representative slot, or -1 if resolved
	reps    []int                        // representative slot -> batch index
	inBatch map[encoding.Fingerprint]int // fingerprint -> representative slot

	hits   []int // batch indices answered by the store
	weight []int // representative's batch index -> batch slots in its class
	todo   []int // batch indices to simulate
}

// Fingerprint outcomes for mode[].
const (
	fpInvalid = iota
	fpFull
	fpSettled // settled by the runner's pruning pass (re-ask, invalid or pruned)
)

// cacheFor binds the pool's fitness cache to store for a fresh run on
// p: a new run id and cleared counters, while every batch buffer an
// earlier run grew (the decoded mappings) is kept. The first cached run
// on the pool builds the cache, so a pool a long-lived engine leases
// keeps it warm across requests.
func (pl *Pool) cacheFor(p *Problem, store *CacheStore) *fitnessCache {
	if pl.cache == nil {
		pl.cache = &fitnessCache{inBatch: make(map[encoding.Fingerprint]int)}
	}
	c := pl.cache
	c.p, c.store, c.run, c.stats = p, store, store.beginRun(), CacheStats{}
	return c
}

// evaluate scores batch[i] into fit[i] for every i, like Pool.Evaluate,
// but dispatches only one representative per schedule-equivalence class
// and none for schedules already stored. Three phases:
//
//  1. validate + fingerprint every genome by a full decode and hash,
//     leaving maps[i] holding the decoded schedule;
//  2. group by fingerprint — store hit, in-batch duplicate, or new
//     representative (one store read-lock spans the whole scan);
//  3. simulate the representatives from their already-decoded
//     mappings, insert their fitness into the store (one write-lock
//     for the batch), then scatter it to every class member.
//
// pn is the runner's pruning pass (nil without one). A nil pre means
// nothing is known about the batch.
// Otherwise the pass has validated every genome and pre[i] is its slot
// state: every slot it did not leave open (re-asks, invalid and pruned
// genomes) keeps the fitness the pass wrote and is neither
// fingerprinted, counted nor stored, and the open slots skip
// re-validation. When the pass runs its virtual-time stage, every
// representative goes through settle before any is simulated, and only
// those it leaves open are simulated and stored.
//
// With a phases hook set (Run's), start is the instant the call began:
// evaluate reads the clock when the lookup ends and, when it settles,
// again when the virtual-time stage ends, adds the fingerprint and bound
// time to the hook, and returns the instant simulation began, so the
// caller's next clock read closes the simulate phase.
func (c *fitnessCache) evaluate(pool *Pool, batch []encoding.Genome, fit []float64, pre []uint8, pn *pruner, start time.Time) time.Time {
	c.grow(len(batch))
	c.fingerprintBatch(batch, pre)

	c.lookup(fit)
	tSim := start
	if c.phases != nil {
		tSim = time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
		c.phases.FingerprintNs += tSim.Sub(start).Nanoseconds()
	}

	staged := pn != nil && pn.virtual
	if staged {
		c.settle(pool, fit, pn)
		if c.phases != nil {
			tBound := tSim
			tSim = time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
			c.phases.BoundNs += tSim.Sub(tBound).Nanoseconds()
		}
	}

	c.todo = c.todo[:0]
	for _, i := range c.reps {
		if !staged || pn.state[i] == slotOpen {
			c.todo = append(c.todo, i)
		}
	}
	if len(c.todo) > 0 {
		pool.simulate(c.todo, fit, func(k int) *sim.Mapping { return &c.maps[c.todo[k]] })
		c.insert(fit)
	}
	for i := range batch {
		if slot := c.class[i]; slot >= 0 {
			r := c.reps[slot]
			fit[i] = fit[r]
			if staged {
				pn.state[i], pn.lo[i], pn.hi[i] = pn.state[r], pn.lo[r], pn.hi[r]
			}
		}
	}
	return tSim
}

// lookup is phase 2: the grouping scan of the batch under one
// store read lock. Each fingerprinted genome becomes a store hit, an
// in-batch duplicate of an earlier representative, or a new
// representative.
func (c *fitnessCache) lookup(fit []float64) {
	c.reps, c.hits = c.reps[:0], c.hits[:0]
	clear(c.inBatch)
	c.store.mu.RLock()
	defer c.store.mu.RUnlock()
	for i := range c.mode {
		c.class[i] = -1
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
			c.hits = append(c.hits, i)
			continue
		}
		if slot, ok := c.inBatch[fp]; ok {
			c.class[i] = slot
			c.weight[c.reps[slot]]++
			c.stats.Deduped++
			continue
		}
		c.inBatch[fp] = len(c.reps)
		c.class[i] = len(c.reps)
		c.weight[i] = 1
		c.reps = append(c.reps, i)
		c.stats.Misses++
	}
}

// insert stores the fitness of every simulated representative under one
// store write lock.
func (c *fitnessCache) insert(fit []float64) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	for _, i := range c.todo {
		c.store.insertLocked(c.fps[i], fit[i], c.run)
	}
}

// settle is the pruning pass's virtual-time stage on the cache path,
// run after the store lookup so no store hit is priced. It hands every
// representative to pruner.settle, each weighted by its class size so
// the floor counts batch slots as the uncached stage does, with the
// store hits as exact values. evaluate hands each representative's
// state and bracket to the rest of its class.
func (c *fitnessCache) settle(pool *Pool, fit []float64, pn *pruner) {
	c.stats.VirtualPriced += uint64(pn.settle(pool.ev, nil, fit, c.reps, c.weight, c.hits, c.maps))
	for _, i := range c.reps {
		if pn.state[i] == slotFiltered {
			c.stats.BoundPruned++
			c.stats.VirtualPruned++
		}
	}
}

// fingerprintBatch is phase 1: validate, decode and fingerprint every
// genome, writing maps, fps and mode at its batch index.
func (c *fitnessCache) fingerprintBatch(batch []encoding.Genome, pre []uint8) {
	nJobs, nAccels := c.p.NumJobs(), c.p.NumAccels()
	for i, g := range batch {
		if pre != nil {
			if pre[i] != slotOpen {
				c.mode[i] = fpSettled
				continue
			}
		} else if err := g.Validate(nJobs, nAccels); err != nil {
			c.mode[i] = fpInvalid
			continue
		}
		c.fps[i] = g.FingerprintInto(nAccels, &c.maps[i])
		c.mode[i] = fpFull
	}
}

// grow sizes the batch scratch for n genomes.
func (c *fitnessCache) grow(n int) {
	if cap(c.maps) < n {
		maps := make([]sim.Mapping, n)
		copy(maps, c.maps) // keep already-grown queue buffers
		c.maps = maps
		c.fps = make([]encoding.Fingerprint, n)
		c.mode = make([]uint8, n)
		c.class = make([]int, n)
		c.weight = make([]int, n)
	}
	c.maps = c.maps[:n]
	c.fps = c.fps[:n]
	c.mode = c.mode[:n]
	c.class = c.class[:n]
	c.weight = c.weight[:n]
}
