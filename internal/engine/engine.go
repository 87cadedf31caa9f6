// Package engine is the long-lived core behind the public magma.Solver:
// the state worth keeping between searches, made concurrency-safe.
//
// A per-call facade rebuilds three things on every request and throws
// them away: the job-analysis table (the §IV-E profiling pass — by far
// the most expensive setup step), the evaluator/simulator pools with
// their grown scratch, and the schedule-fingerprint fitness cache. A
// server embedding the library, the OptimizeStream deployment loop and
// the hyper-parameter tuner all repeat problems — the same platform,
// often the same group content — so the engine keys all three by a
// stable problem identity and shares them across runs:
//
//   - tables are cached by encoding.TableIdentity (content hash of the
//     group's layers/batches and the platform configuration — stable
//     across process runs, computable without building the table);
//   - each (table identity × objective) problem owns one shared
//     m3e.CacheStore, so a fitness computed for one request answers the
//     same schedule in any later (or concurrent) request — results stay
//     bit-identical to a cold run because fitness is a pure function of
//     the decoded schedule;
//   - evaluation pools are checked out per run and returned, keeping
//     their grown simulator scratch warm.
//
// Memory is bounded: the problem map is FIFO-bounded (Config.
// MaxProblems), every fitness store is capacity-bounded, and pool
// free-lists are capped. Eviction only drops the engine's references —
// in-flight runs keep working on their handles.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/platform"
	"magma/internal/workload"
)

// DefaultMaxProblems bounds the cached problems when Config.MaxProblems
// is zero. A problem entry is a table (shared across objectives) plus a
// bounded fitness store and a few pools — tens of MB at the default
// store size, so a small default keeps a busy multi-tenant server
// predictable.
const DefaultMaxProblems = 64

// maxPooledPerWidth caps each problem's free-list of evaluation pools
// per worker count; beyond it, returned pools are dropped for GC. It
// only binds when a concurrency spike recedes.
const maxPooledPerWidth = 16

// Config tunes a long-lived engine.
type Config struct {
	// MaxProblems bounds the number of cached (table identity ×
	// objective) problems; 0 means DefaultMaxProblems. Oldest-created
	// entries are evicted first.
	MaxProblems int
	// CacheSize bounds each problem's shared fingerprint→fitness store
	// in entries; 0 means m3e.DefaultCacheSize.
	CacheSize int
}

// Stats reports what the engine reused versus rebuilt. Counters only
// grow; read them via Engine.Stats.
type Stats struct {
	// Searches counts completed ProblemHandle.Run calls.
	Searches uint64
	// TablesBuilt / TablesReused count job-analysis profiling passes
	// actually run versus skipped by the identity-keyed cache.
	TablesBuilt  uint64
	TablesReused uint64
	// ProblemsEvicted counts FIFO evictions from the problem cache.
	ProblemsEvicted uint64
	// PoolsBuilt / PoolsReused count evaluation-pool constructions
	// versus free-list checkouts.
	PoolsBuilt  uint64
	PoolsReused uint64
	// CachesBuilt / CachesReused count fitness-cache scratch
	// constructions versus free-list checkouts. A reused cache keeps its
	// grown batch scratch (the decoded mappings) warm across runs (it is
	// Rebound to a fresh run id each checkout).
	CachesBuilt  uint64
	CachesReused uint64
	// Cache aggregates the per-run fitness-cache counters of every
	// completed run; Cache.CrossHits is the shared-across-runs payoff
	// (hits on entries a different run inserted).
	Cache m3e.CacheStats
	// SnapshotsTaken counts successful warm-state snapshot
	// serializations (Solver.Snapshot and the periodic snapshotter call
	// NoteSnapshot after each durable write).
	SnapshotsTaken uint64
	// ProblemsRestored / EntriesRestored count what Restore loaded from
	// a snapshot: problem stores handed to the engine and the fitness
	// entries inside them. Restored stores answer requests from
	// generation one — every hit on them counts in Cache.CrossHits.
	ProblemsRestored uint64
	EntriesRestored  uint64
	// MapperPanics counts runs failed by a panic recovered from a mapper
	// callback (m3e.MapperPanicError). The engine itself stays
	// consistent — leased pools and cache scratch are returned on the
	// panic path — so the counter growing while Searches also grows is
	// the expected shape of a misbehaving registered mapper.
	MapperPanics uint64
	// Problems is the live problem count (cached table × objective
	// entries) at snapshot time. In a sharded fleet the per-shard counts
	// sum to the distinct problem count across the fleet exactly when
	// routing keeps ownership disjoint.
	Problems int
}

// problemKey identifies one cached problem: the analyzer-visible
// content of (group, platform) plus the objective fitness is computed
// under.
type problemKey struct {
	table encoding.TableKey
	obj   m3e.Objective
}

// tableState memoizes one profiling pass. Builds run outside the engine
// lock (they are expensive); sync.Once collapses concurrent requests
// for the same identity onto a single build.
type tableState struct {
	once sync.Once
	prob *m3e.Problem // the first problem built on this table
	err  error
	refs int // problem entries referencing this table (under Engine.mu)
}

// problemState is one cached problem with its shareable run state.
type problemState struct {
	tab *tableState
	obj m3e.Objective

	once  sync.Once
	prob  *m3e.Problem
	err   error
	store *m3e.CacheStore

	mu     sync.Mutex
	pools  map[int][]*m3e.Pool // worker count -> free pools
	caches []*m3e.FitnessCache // free fitness-cache scratch (store-bound)
}

// Engine is the concurrency-safe, long-lived solver core. The zero
// value is not usable; call New.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	tables   map[encoding.TableKey]*tableState
	problems map[problemKey]*problemState
	order    []problemKey // FIFO eviction order of problems
	stats    Stats
	// restored holds snapshot-loaded fitness stores awaiting adoption:
	// the engine cannot rebuild an analysis table from its content hash
	// alone, so a restored store waits here until a request with the
	// matching (table identity × objective) arrives and Problem adopts it
	// as that entry's store. Pending stores are included in Export, so a
	// restart before adoption does not lose them.
	restored map[problemKey]*m3e.CacheStore
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.MaxProblems <= 0 {
		cfg.MaxProblems = DefaultMaxProblems
	}
	return &Engine{
		cfg:      cfg,
		tables:   make(map[encoding.TableKey]*tableState),
		problems: make(map[problemKey]*problemState),
		restored: make(map[problemKey]*m3e.CacheStore),
	}
}

// Stats returns a snapshot of the reuse counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Problems = len(e.problems)
	return st
}

// ProblemHandle is a lease on one cached problem. Handles are cheap,
// concurrency-safe to hold, and stay valid after the engine evicts the
// entry (eviction only drops the engine's references).
type ProblemHandle struct {
	eng *Engine
	st  *problemState
}

// Problem resolves (group, platform, objective) to a cached problem,
// building the analysis table only when the content identity is new.
// Concurrent requests for the same identity share one build.
func (e *Engine) Problem(g workload.Group, pf platform.Platform, obj m3e.Objective) (*ProblemHandle, error) {
	// Validate on every acquisition, not just cold builds: TableIdentity
	// deliberately excludes analyzer-invisible fields (job/core ID
	// numbering), so a malformed input could otherwise slip through by
	// hashing onto a valid cached problem. Both checks are O(content) —
	// trivial next to a profiling pass.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	key := problemKey{table: encoding.TableIdentity(g, pf), obj: obj}

	e.mu.Lock()
	st, ok := e.problems[key]
	tableReused := ok
	if !ok {
		ts, tok := e.tables[key.table]
		tableReused = tok // a new objective can still reuse the table
		if !tok {
			ts = &tableState{}
			e.tables[key.table] = ts
		}
		ts.refs++
		store := m3e.NewCacheStore(e.cfg.CacheSize)
		if rs, restored := e.restored[key]; restored {
			// Adopt the snapshot-loaded store: this problem's first run
			// starts with the previous process's memoized fitness entries.
			store = rs
			delete(e.restored, key)
		}
		st = &problemState{
			tab:   ts,
			obj:   obj,
			store: store,
			pools: make(map[int][]*m3e.Pool),
		}
		e.problems[key] = st
		e.order = append(e.order, key)
		for len(e.order) > e.cfg.MaxProblems {
			e.evictOldestLocked()
		}
	}
	e.mu.Unlock()

	st.once.Do(func() {
		st.tab.once.Do(func() {
			st.tab.prob, st.tab.err = m3e.NewProblem(g, pf, obj)
			e.mu.Lock()
			e.stats.TablesBuilt++
			e.mu.Unlock()
		})
		if st.tab.err != nil {
			st.err = st.tab.err
			return
		}
		if p := st.tab.prob; p.Objective == obj {
			st.prob = p // first objective on this table: reuse as-is
		} else {
			st.prob = m3e.ProblemFromTable(p.Table, obj)
		}
	})
	if st.err != nil {
		// Drop the failed entry: caching errors would let a stream of
		// distinct invalid requests evict valid hot tables while the
		// resident error entries can never serve anyone. Rebuild cost on
		// a repeated bad request is just the failing validation.
		e.dropFailed(key, st)
		return nil, st.err
	}
	if tableReused {
		e.mu.Lock()
		e.stats.TablesReused++
		e.mu.Unlock()
	}
	return &ProblemHandle{eng: e, st: st}, nil
}

// dropFailed removes one specific problem entry (takes and releases
// e.mu itself). Idempotent under concurrency: only the goroutine that
// still finds st installed removes it.
func (e *Engine) dropFailed(key problemKey, st *problemState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.problems[key]; !ok || cur != st {
		return
	}
	delete(e.problems, key)
	st.tab.refs--
	if st.tab.refs == 0 {
		delete(e.tables, key.table)
	}
	for i, k := range e.order {
		if k == key {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// evictOldestLocked drops the oldest problem entry (and its table once
// no other objective references it). Caller holds e.mu.
func (e *Engine) evictOldestLocked() {
	key := e.order[0]
	e.order = e.order[1:]
	st, ok := e.problems[key]
	if !ok {
		return
	}
	delete(e.problems, key)
	st.tab.refs--
	if st.tab.refs == 0 {
		delete(e.tables, key.table)
	}
	e.stats.ProblemsEvicted++
}

// Prob returns the underlying problem (table prebuilt, read-only during
// search).
func (h *ProblemHandle) Prob() *m3e.Problem { return h.st.prob }

// Store returns the problem's shared cross-run fitness store.
func (h *ProblemHandle) Store() *m3e.CacheStore { return h.st.store }

// getPool checks a pool out of the free-list, or builds one.
func (h *ProblemHandle) getPool(workers int) *m3e.Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := h.st
	st.mu.Lock()
	if l := st.pools[workers]; len(l) > 0 {
		p := l[len(l)-1]
		st.pools[workers] = l[:len(l)-1]
		st.mu.Unlock()
		h.eng.mu.Lock()
		h.eng.stats.PoolsReused++
		h.eng.mu.Unlock()
		return p
	}
	st.mu.Unlock()
	h.eng.mu.Lock()
	h.eng.stats.PoolsBuilt++
	h.eng.mu.Unlock()
	return m3e.NewPool(st.prob, workers)
}

// putPool returns a pool to the free-list (dropped past the cap).
func (h *ProblemHandle) putPool(p *m3e.Pool) {
	st := h.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if l := st.pools[p.Workers()]; len(l) < maxPooledPerWidth {
		st.pools[p.Workers()] = append(l, p)
	}
}

// getCache checks fitness-cache scratch out of the free-list, or builds
// a cache bound to the problem's shared store. Either way the cache is
// Rebound: fresh run id and counters, warm decoded-mapping buffers
// when reused.
func (h *ProblemHandle) getCache() *m3e.FitnessCache {
	st := h.st
	st.mu.Lock()
	if l := st.caches; len(l) > 0 {
		c := l[len(l)-1]
		st.caches = l[:len(l)-1]
		st.mu.Unlock()
		h.eng.mu.Lock()
		h.eng.stats.CachesReused++
		h.eng.mu.Unlock()
		return c
	}
	st.mu.Unlock()
	h.eng.mu.Lock()
	h.eng.stats.CachesBuilt++
	h.eng.mu.Unlock()
	return m3e.NewFitnessCacheWith(st.prob, st.store)
}

// putCache returns cache scratch to the free-list (dropped past the cap).
func (h *ProblemHandle) putCache(c *m3e.FitnessCache) {
	st := h.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.caches) < maxPooledPerWidth {
		st.caches = append(st.caches, c)
	}
}

// Run executes one search over the cached problem, wiring in a pooled
// evaluator set and — when o.Cache is set — the problem's shared
// cross-run fitness store. Results are bit-identical to an uncached,
// un-pooled m3e.Run with the same options and seed: pools and stores
// change wall-clock, never values. Safe for concurrent use; each call
// leases its own pool, and the store is concurrency-safe.
func (h *ProblemHandle) Run(opt m3e.Optimizer, o m3e.Options, seed int64) (m3e.Result, error) {
	return h.RunCtx(context.Background(), opt, o, seed)
}

// RunCtx is Run under a context: a deadline or cancel aborts the search
// at the next generation boundary and returns the best-so-far Result
// with Aborted set (not an error). Aborted runs still count toward the
// engine's Searches/Cache stats — their evaluations happened.
func (h *ProblemHandle) RunCtx(ctx context.Context, opt m3e.Optimizer, o m3e.Options, seed int64) (m3e.Result, error) {
	pool := h.getPool(o.Workers)
	defer h.putPool(pool)
	o.Pool = pool
	o.Context = ctx
	if o.Cache {
		// Lease rebindable cache scratch on top of the shared store: the
		// run gets warm decoded-mapping buffers, and the store keeps
		// flowing fitness entries across runs as before.
		fc := h.getCache()
		defer h.putCache(fc)
		o.Scratch = fc
	}
	res, err := m3e.Run(h.st.prob, opt, o, seed)
	h.eng.mu.Lock()
	if err == nil {
		h.eng.stats.Searches++
		h.eng.stats.Cache.Add(res.Cache)
	} else {
		var mpe *m3e.MapperPanicError
		if errors.As(err, &mpe) {
			h.eng.stats.MapperPanics++
		}
	}
	h.eng.mu.Unlock()
	return res, err
}
