package serve

import (
	"slices"
	"sync"

	"magma"
)

// The memo of generated workloads holds at most generatedSpecs specs and
// generatedJobs jobs across them (about 2 MB of jobs), evicting the
// oldest first. A spec whose workload alone exceeds generatedJobs is
// generated and not kept, so no spec up to maxGenerateJobs can pin its
// jobs.
const (
	generatedSpecs = 64
	generatedJobs  = 1 << 14
)

// generatedMemo remembers the workloads that generate specs named. The
// generator is deterministic, so a spec's workload never changes and a
// repeated spec need not be generated again. Entries are never handed
// out: each resolve gets its own copy (cloneWorkload), so no caller can
// alter what the next one receives. Errors are not kept, and concurrent
// misses on one spec each generate; the first to finish is kept.
type generatedMemo struct {
	mu      sync.Mutex
	entries map[magma.WorkloadConfig]magma.Workload
	order   []magma.WorkloadConfig // FIFO: oldest first
	jobs    int                    // jobs held across entries
}

// generated is the memo behind every generate spec the package resolves:
// the shard's /optimize and /jobs paths and the router's ResolveTarget.
// It is package-level because ResolveTarget has no Server to hold it;
// an entry depends on its key alone, so sharing it changes no answer.
var generated generatedMemo

// workload returns the workload cfg generates, from the memo when it
// holds cfg.
func (m *generatedMemo) workload(cfg magma.WorkloadConfig) (magma.Workload, error) {
	m.mu.Lock()
	wl, ok := m.entries[cfg]
	m.mu.Unlock()
	if ok {
		// An entry is never written, so it is copied outside the lock.
		return cloneWorkload(wl), nil
	}
	wl, err := magma.GenerateWorkload(cfg)
	if err != nil {
		return magma.Workload{}, err
	}
	if wl.NumJobs() <= generatedJobs {
		m.keep(cfg, cloneWorkload(wl))
	}
	return wl, nil
}

// keep adds cfg's workload, of at most generatedJobs jobs, evicting the
// oldest entries until both bounds hold.
func (m *generatedMemo) keep(cfg magma.WorkloadConfig, wl magma.Workload) {
	n := wl.NumJobs()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[cfg]; ok {
		return
	}
	for len(m.order) >= generatedSpecs || m.jobs+n > generatedJobs {
		oldest := m.order[0]
		m.jobs -= m.entries[oldest].NumJobs()
		delete(m.entries, oldest)
		m.order = slices.Delete(m.order, 0, 1)
	}
	if m.entries == nil {
		m.entries = make(map[magma.WorkloadConfig]magma.Workload, generatedSpecs)
	}
	m.entries[cfg] = wl
	m.order = append(m.order, cfg)
	m.jobs += n
}

// cloneWorkload copies wl's groups and jobs the way the generator lays
// them out: one []Job, each group a full slice expression of it, so an
// append to one group never writes into the next.
func cloneWorkload(wl magma.Workload) magma.Workload {
	jobs := make([]magma.Job, 0, wl.NumJobs())
	groups := make([]magma.Group, len(wl.Groups))
	for i, g := range wl.Groups {
		lo := len(jobs)
		jobs = append(jobs, g.Jobs...)
		groups[i] = magma.Group{Index: g.Index, Jobs: jobs[lo:len(jobs):len(jobs)]}
	}
	wl.Groups = groups
	return wl
}
