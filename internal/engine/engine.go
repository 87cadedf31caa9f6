// Package engine is the long-lived core behind the public magma.Solver:
// the state worth keeping between searches, made concurrency-safe.
//
// A per-call facade rebuilds its state on every request and throws it
// away. A server embedding the library, the OptimizeStream deployment
// loop and the hyper-parameter tuner all repeat problems — the same
// platform, often the same group content — so the engine keys that
// state by a stable problem identity and shares it across runs:
//
//   - problems are cached by encoding.TableIdentity (content hash of
//     the group's layers/batches and the platform configuration —
//     stable across process runs, computable without building the
//     table) and objective, so a repeated problem skips the
//     job-analysis profiling pass (§IV-E), by far the most expensive
//     setup step;
//   - each problem keeps a small memo of finished searches (Recall,
//     Remember), so an exact repeat of a search — same mapper, budget
//     and seed — is answered without running it again. The memo is
//     the only reuse of results across requests, and the durable state
//     a snapshot carries (Export, Restore). Every search that does run
//     takes the one evaluation path of m3e.Run, on an evaluator that
//     lives as long as the run, so its result is bit-identical to a
//     cold run.
//
// Memory is bounded: the problem map is FIFO-bounded (Config.
// MaxProblems), and memos are capped. Eviction only drops the engine's
// references — in-flight runs keep working on their handles, and a
// problem's memo goes with its entry.
package engine

import (
	"context"
	"errors"
	"slices"
	"sync"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/persist"
	"magma/internal/platform"
	"magma/internal/workload"
)

// DefaultMaxProblems bounds the cached problems when Config.MaxProblems
// is zero. A problem entry is a table and a memo of a few schedules, so
// a small default keeps a busy multi-tenant server predictable.
const DefaultMaxProblems = 64

// memoCap caps each problem's memo of finished searches; past it the
// oldest entry is dropped. An entry is one schedule of a few KB, so a
// full engine's memos stay a few MB at DefaultMaxProblems.
const memoCap = 16

// Config tunes a long-lived engine.
type Config struct {
	// MaxProblems bounds the number of cached (table identity ×
	// objective) problems; 0 means DefaultMaxProblems. Oldest-created
	// entries are evicted first.
	MaxProblems int
}

// Stats reports what the engine reused versus rebuilt. Counters only
// grow; read them via Engine.Stats.
type Stats struct {
	// Searches counts completed ProblemHandle.RunCtx calls and memo hits
	// (Recall).
	Searches uint64
	// MemoHits counts the searches answered from a problem's memo of
	// finished searches instead of being run.
	MemoHits uint64
	// TablesBuilt counts job-analysis profiling passes run; TablesReused
	// counts acquisitions that found their problem already built.
	TablesBuilt  uint64
	TablesReused uint64
	// ProblemsEvicted counts FIFO evictions from the problem cache.
	ProblemsEvicted uint64
	// PoolsBuilt and PoolsReused always read 0: each run builds its own
	// evaluator, and the engine keeps none between runs. They stay for
	// wire and benchmark compatibility.
	PoolsBuilt  uint64
	PoolsReused uint64
	// Cache aggregates the evaluation counters of every completed run
	// and memo hit. Cache.CrossHits is the shared-across-runs payoff: a
	// memo hit counts every genome its remembered search asked as a
	// cross-run hit, and a run that searches counts none.
	Cache m3e.CacheStats
	// SnapshotsTaken counts successful warm-state snapshot
	// serializations (Solver.Snapshot and the periodic snapshotter call
	// NoteSnapshot after each durable write).
	SnapshotsTaken uint64
	// ProblemsRestored / EntriesRestored count what Restore loaded from
	// a snapshot: problems with a memo, and the memo entries inside
	// them. A restored entry answers its first exact repeat as a memo
	// hit, with every genome counted in Cache.CrossHits.
	ProblemsRestored uint64
	EntriesRestored  uint64
	// MapperPanics counts runs failed by a panic recovered from a mapper
	// callback (m3e.MapperPanicError). The engine itself stays
	// consistent — a run holds no engine state but its handle — so
	// the counter growing while Searches also grows is the expected
	// shape of a misbehaving registered mapper.
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

// problemState is one cached problem with its memo. A problem Restore
// loaded has a memo but no Problem until the first request with its
// identity builds one. Builds run outside the engine lock (they are
// expensive); once collapses concurrent requests for the same identity
// onto a single build.
type problemState struct {
	once sync.Once
	prob *m3e.Problem
	err  error

	mu   sync.Mutex
	memo []persist.MemoEntry // finished searches, oldest first
}

// MemoKey names one finished search on a problem (see persist.MemoKey).
type MemoKey = persist.MemoKey

// Engine is the concurrency-safe, long-lived solver core. The zero
// value is not usable; call New.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	problems map[problemKey]*problemState
	order    []problemKey // FIFO eviction order of problems
	stats    Stats
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.MaxProblems <= 0 {
		cfg.MaxProblems = DefaultMaxProblems
	}
	return &Engine{
		cfg:      cfg,
		problems: make(map[problemKey]*problemState),
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
// Concurrent requests for the same identity share one build. The first
// request for a problem Restore loaded builds its table and keeps the
// restored memo entries that fit the problem.
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
	if !ok {
		st = e.addLocked(key)
	}
	e.mu.Unlock()

	reused := true
	st.once.Do(func() {
		reused = false
		st.prob, st.err = m3e.NewProblem(g, pf, obj)
		e.mu.Lock()
		e.stats.TablesBuilt++
		e.mu.Unlock()
		if st.err == nil {
			st.keepFitting()
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
	if reused {
		e.mu.Lock()
		e.stats.TablesReused++
		e.mu.Unlock()
	}
	return &ProblemHandle{eng: e, st: st}, nil
}

// addLocked installs an empty problem entry for key and evicts the
// oldest entries past MaxProblems. Caller holds e.mu.
func (e *Engine) addLocked(key problemKey) *problemState {
	st := &problemState{}
	e.problems[key] = st
	e.order = append(e.order, key)
	for len(e.order) > e.cfg.MaxProblems {
		e.evictOldestLocked()
	}
	return st
}

// keepFitting drops the memo entries whose genome does not fit the
// just-built problem: only a snapshot can hold such an entry, and
// answering with it would decode a schedule of another shape.
func (st *problemState) keepFitting() {
	st.mu.Lock()
	defer st.mu.Unlock()
	nJobs, nAccels := st.prob.NumJobs(), st.prob.NumAccels()
	st.memo = slices.DeleteFunc(st.memo, func(m persist.MemoEntry) bool {
		return m.Genome.Validate(nJobs, nAccels) != nil
	})
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
	for i, k := range e.order {
		if k == key {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// evictOldestLocked drops the oldest problem entry. Caller holds e.mu.
func (e *Engine) evictOldestLocked() {
	key := e.order[0]
	e.order = e.order[1:]
	if _, ok := e.problems[key]; !ok {
		return
	}
	delete(e.problems, key)
	e.stats.ProblemsEvicted++
}

// Prob returns the underlying problem (table prebuilt, read-only during
// search).
func (h *ProblemHandle) Prob() *m3e.Problem { return h.st.prob }

// Recall looks k up in the problem's memo of finished searches. On a
// hit it returns the entry Remember stored and the counters the hit
// reports — every asked genome a cross-run hit — and counts one search,
// one memo hit and those counters in the engine's Stats. The entry's
// genome and curve are shared: callers copy them and never mutate them.
func (h *ProblemHandle) Recall(k MemoKey) (persist.MemoEntry, m3e.CacheStats, bool) {
	st := h.st
	st.mu.Lock()
	i := st.memoIndex(k)
	var e persist.MemoEntry
	if i >= 0 {
		e = st.memo[i]
	}
	st.mu.Unlock()
	if i < 0 {
		return e, m3e.CacheStats{}, false
	}
	cache := m3e.CacheStats{Hits: uint64(e.Asked), CrossHits: uint64(e.Asked)}
	h.eng.mu.Lock()
	h.eng.stats.Searches++
	h.eng.stats.MemoHits++
	h.eng.stats.Cache.Add(cache)
	h.eng.mu.Unlock()
	return e, cache, true
}

// memoIndex returns the position of k in the memo, or -1. Caller holds
// st.mu.
func (st *problemState) memoIndex(k MemoKey) int {
	return slices.IndexFunc(st.memo, func(m persist.MemoEntry) bool { return m.Key == k })
}

// Remember stores the result of a finished, unaborted search under
// e.Key, dropping the problem's oldest entry past memoCap. e's genome
// and curve must not be mutated afterwards. A key already remembered
// (two identical searches that finished together) keeps its first
// entry; both are equal.
func (h *ProblemHandle) Remember(e persist.MemoEntry) {
	st := h.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.memoIndex(e.Key) >= 0 {
		return
	}
	if len(st.memo) == memoCap {
		copy(st.memo, st.memo[1:])
		st.memo = st.memo[:memoCap-1]
	}
	st.memo = append(st.memo, e)
}

// RunCtx executes one search over the cached problem under a context:
// m3e.Run with the same options and seed, so the result is the same. A
// deadline or cancel aborts the search at the next generation boundary
// and returns the best-so-far Result with Aborted set (not an error).
// Aborted runs still count toward the engine's Searches/Cache stats —
// their evaluations happened. Safe for concurrent use.
func (h *ProblemHandle) RunCtx(ctx context.Context, opt m3e.Optimizer, o m3e.Options, seed int64) (m3e.Result, error) {
	o.Context = ctx
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
