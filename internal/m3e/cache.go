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

// CacheStats counts how the fitness cache resolved evaluations.
type CacheStats struct {
	// Hits are evaluations answered by the cross-generation cache.
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
	// FullFP / IncrementalFP / CleanFP break the fingerprint pass down
	// by how each decodable genome's schedule fingerprint was computed:
	// a full decode+hash, an incremental dirty-core rebuild against its
	// parent's cached per-core hashes, or a verbatim copy of the
	// parent's fingerprint (a clean elite re-ask). Incremental and clean
	// require an optimizer implementing VariationTracker.
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
	// Hits are clean elite re-asks answered with the previous batch's
	// exact fitness, Misses every other valid genome (pruned or
	// simulated), Invalid the genomes that failed validation, and
	// Deduped and the fingerprint counters stay zero. Either way
	// Hits+Deduped+Misses+Invalid equals Result.Asked.
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
// When the optimizer implements VariationTracker, the fingerprint pass
// itself goes incremental: the cache double-buffers the previous
// batch's decoded mappings and per-core lane hashes, so an elite
// re-ask copies its parent's fingerprint outright and a lightly-mutated
// child re-hashes only the cores its operators dirtied
// (encoding.FingerprintUpdate) instead of paying a full decode.
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

	stats   CacheStats
	tracker VariationTracker // optional; set by Run per run
	phases  *PhaseTimings    // optional; set by Run per run

	// Per-batch scratch, grown once and reused. maps[i] holds the
	// decoded schedule of batch[i] — the fingerprint pass is the only
	// decode per genome; representatives are simulated straight from it.
	// The prev* buffers double-buffer the last evaluated batch so the
	// incremental fingerprint path can source clean queues and per-core
	// hashes from each genome's parent; prevLen is the length of that
	// batch (0 = no usable previous generation).
	maps, prevMaps   []sim.Mapping
	fps, prevFps     []encoding.Fingerprint
	ok, prevOk       []bool
	coreH, prevCoreH []encoding.CoreHashes
	prevLen          int

	mode    []uint8 // batch index -> fingerprint path (fp* constants)
	class   []int   // batch index -> representative slot, or -1 if resolved
	charge  []bool  // batch index -> consumes effective budget (miss/invalid)
	reps    []int   // representative slot -> batch index
	repFit  []float64
	inBatch map[encoding.Fingerprint]int // fingerprint -> representative slot
}

// Fingerprint-path markers for mode[].
const (
	fpInvalid = iota
	fpFull
	fpIncremental
	fpClean
	fpResolved // settled by the runner's pruning pass (invalid or pruned)
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
// store: it allocates a new run id and clears the counters, provenance
// buffers and per-run hooks, while keeping every grown scratch buffer
// (decoded mappings, per-core hashes). A long-lived engine Rebinds
// free-listed caches instead of rebuilding them, so the scratch stays
// warm across requests.
func (c *FitnessCache) Rebind() {
	c.run = c.store.beginRun()
	c.stats = CacheStats{}
	c.tracker = nil
	c.phases = nil
	c.prevLen = 0
}

// Stats returns the counters accumulated so far.
func (c *FitnessCache) Stats() CacheStats { return c.stats }

// SetTracker wires an optimizer's variation provenance into the
// fingerprint pass, enabling the clean/incremental fast paths. Run does
// this automatically for optimizers implementing VariationTracker;
// callers driving Evaluate directly (tests, benchmarks) may set it
// themselves. The tracker must describe the exact batches this cache
// evaluates.
func (c *FitnessCache) SetTracker(vt VariationTracker) { c.tracker = vt }

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
//     so deterministic at any worker count). With tracker provenance a
//     genome's fingerprint comes from its parent's cached state (clean
//     copy or dirty-core incremental rebuild); otherwise from a full
//     decode+hash. Either way maps[i] ends up holding the decoded
//     schedule;
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
// validated every genome and pre[i] is its slot state: slots it settled
// (slotInvalid, slotPruned) keep the fitness it wrote and are neither
// fingerprinted, counted nor stored — a pruned slot's fitness is a
// bound, never an exact value — and the rest skip re-validation.
func (c *FitnessCache) evaluate(pool *Pool, batch []encoding.Genome, fit []float64, pre []uint8) {
	tFP := time.Now() //magmalint:allow detrand -- per-phase timing telemetry (Phases); never reaches result bytes
	// Swap in the previous batch's buffers as parents before growing
	// this batch's side.
	c.maps, c.prevMaps = c.prevMaps, c.maps
	c.fps, c.prevFps = c.prevFps, c.fps
	c.ok, c.prevOk = c.prevOk, c.ok
	c.coreH, c.prevCoreH = c.prevCoreH, c.coreH
	c.grow(len(batch))
	var prov []VariationInfo
	if c.tracker != nil && c.prevLen > 0 {
		prov = c.tracker.Variations()
	}
	c.fingerprintBatch(pool, batch, prov, pre)

	c.reps = c.reps[:0]
	clear(c.inBatch)
	c.store.mu.RLock()
	for i := range batch {
		c.class[i] = -1
		c.charge[i] = true // constraint violations always consume budget
		switch c.mode[i] {
		case fpResolved:
			continue
		case fpInvalid:
			fit[i] = math.Inf(-1)
			c.stats.Invalid++
			continue
		case fpFull:
			c.stats.FullFP++
		case fpIncremental:
			c.stats.IncrementalFP++
		case fpClean:
			c.stats.CleanFP++
		}
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
	c.prevLen = len(batch)
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

// fingerprintBatch is phase 1: validate + decode + fingerprint every
// genome across the pool, routing each through the cheapest sound path.
// Every output (maps, coreH, fps, ok, mode) is written at its batch
// index by exactly one worker, so the result is independent of worker
// scheduling; parents (prev* slots) are only read, possibly by several
// workers sharing an elite. Slots pre marks as settled get ok false, so
// no later child treats them as a parent.
func (c *FitnessCache) fingerprintBatch(pool *Pool, batch []encoding.Genome, prov []VariationInfo, pre []uint8) {
	nJobs, nAccels := c.p.NumJobs(), c.p.NumAccels()
	pool.each(len(batch), func(_ *Evaluator, i int) {
		if pre != nil {
			if pre[i] >= slotInvalid {
				c.ok[i] = false
				c.mode[i] = fpResolved
				return
			}
		} else if err := batch[i].Validate(nJobs, nAccels); err != nil {
			c.ok[i] = false
			c.mode[i] = fpInvalid
			return
		}
		c.ok[i] = true
		if i < len(prov) {
			if p := prov[i].Parent; p >= 0 && p < c.prevLen && c.prevOk[p] {
				if prov[i].Dirty == nil {
					// Bit-identical to its parent (elite re-ask): copy the
					// parent's decoded state outright.
					copyMapping(&c.maps[i], &c.prevMaps[p])
					copy(c.coreH[i], c.prevCoreH[p])
					c.fps[i] = c.prevFps[p]
					c.mode[i] = fpClean
					return
				}
				// Incremental pays off exactly when some core is clean
				// (its queue is copied instead of re-sorted, its hash
				// reused). An all-dirty child — crossover-gen routinely
				// produces one on few-core platforms — has nothing to
				// reuse, so the plain decode is cheaper.
				clean := 0
				for _, d := range prov[i].Dirty {
					if !d {
						clean++
					}
				}
				if clean > 0 {
					c.fps[i] = encoding.FingerprintUpdate(batch[i], nAccels, prov[i].Dirty,
						&c.prevMaps[p], c.prevCoreH[p], &c.maps[i], c.coreH[i])
					c.mode[i] = fpIncremental
					return
				}
			}
		}
		c.fps[i] = batch[i].FingerprintCoresInto(nAccels, &c.maps[i], c.coreH[i])
		c.mode[i] = fpFull
	})
}

// copyMapping copies src's queues into dst, reusing dst's grown
// per-core buffers.
func copyMapping(dst, src *sim.Mapping) {
	if cap(dst.Queues) >= len(src.Queues) {
		dst.Queues = dst.Queues[:len(src.Queues)]
	} else {
		q := make([][]int, len(src.Queues))
		copy(q, dst.Queues)
		dst.Queues = q
	}
	for a := range src.Queues {
		dst.Queues[a] = append(dst.Queues[a][:0], src.Queues[a]...)
	}
}

// grow sizes the current-batch scratch for n genomes (the prev* side is
// grown on its own turn — buffers swap roles every Evaluate).
func (c *FitnessCache) grow(n int) {
	if cap(c.maps) < n {
		maps := make([]sim.Mapping, n)
		copy(maps, c.maps) // keep already-grown queue buffers
		c.maps = maps
		fps := make([]encoding.Fingerprint, n)
		copy(fps, c.fps)
		c.fps = fps
		ok := make([]bool, n)
		copy(ok, c.ok)
		c.ok = ok
		coreH := make([]encoding.CoreHashes, n)
		copy(coreH, c.coreH)
		c.coreH = coreH
	}
	if cap(c.mode) < n {
		c.mode = make([]uint8, n)
		c.class = make([]int, n)
		c.charge = make([]bool, n)
		c.repFit = make([]float64, n)
	}
	c.maps = c.maps[:n]
	c.fps = c.fps[:n]
	c.ok = c.ok[:n]
	c.coreH = c.coreH[:n]
	nAccels := c.p.NumAccels()
	for i := range c.coreH {
		if cap(c.coreH[i]) < nAccels {
			c.coreH[i] = make(encoding.CoreHashes, nAccels)
		}
		c.coreH[i] = c.coreH[i][:nAccels]
	}
	c.mode = c.mode[:n]
	c.class = c.class[:n]
	c.charge = c.charge[:n]
	c.repFit = c.repFit[:n]
}
