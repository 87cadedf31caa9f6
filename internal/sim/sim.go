// Package sim executes a decoded mapping on a multi-core accelerator:
// it implements the BW Allocator of Algorithm 1 and derives the
// throughput objective M3E optimizes (§IV-D1).
//
// The execution model: each sub-accelerator runs its assigned jobs in
// priority order. At any instant, the set of live jobs shares the system
// bandwidth. A job's outstanding demand is (no-stall latency × required
// BW); granting it less than its required bandwidth stretches it
// proportionally (the memory-bound roofline). Whenever any live job
// finishes, its sub-accelerator fetches its next job and the allocator
// re-divides the system bandwidth in the ratio of the live jobs'
// requirements — exactly the time-frame loop of Algorithm 1.
package sim

import (
	"fmt"

	"magma/internal/analyzer"
)

// Mapping is a decoded global mapping: one ordered job queue per
// sub-accelerator (Fig. 4a).
type Mapping struct {
	Queues [][]int // Queues[a] = job IDs in execution order on accel a
}

// Validate checks that the mapping is a permutation of jobs 0..nJobs-1
// spread over nAccels queues.
func (m Mapping) Validate(nJobs, nAccels int) error {
	return m.validate(nJobs, nAccels, make([]bool, nJobs))
}

// Validator is a reusable Mapping checker: it owns the seen-marker
// scratch that the one-shot Validate allocates per call, so request
// paths that validate many mappings (the HTTP server, the CLI compare
// loop) can amortize it to zero steady-state allocations — the same
// discipline the Simulator applies to its own validate pass. A
// Validator must not be shared between goroutines; build one per
// request instead.
type Validator struct {
	seen []bool
}

// Validate checks m exactly like Mapping.Validate, reusing the
// Validator's scratch.
func (v *Validator) Validate(m Mapping, nJobs, nAccels int) error {
	v.seen = grow(v.seen, nJobs)
	return m.validate(nJobs, nAccels, v.seen)
}

// validate is Validate with a caller-owned scratch marker slice (len
// nJobs), so a reusable Simulator can validate without allocating.
func (m Mapping) validate(nJobs, nAccels int, seen []bool) error {
	if len(m.Queues) != nAccels {
		return fmt.Errorf("sim: mapping has %d queues, platform has %d accels", len(m.Queues), nAccels)
	}
	for i := range seen {
		seen[i] = false
	}
	count := 0
	for a, q := range m.Queues {
		for _, j := range q {
			if j < 0 || j >= nJobs {
				return fmt.Errorf("sim: queue %d references job %d (nJobs=%d)", a, j, nJobs)
			}
			if seen[j] {
				return fmt.Errorf("sim: job %d scheduled twice", j)
			}
			seen[j] = true
			count++
		}
	}
	if count != nJobs {
		return fmt.Errorf("sim: mapping schedules %d of %d jobs", count, nJobs)
	}
	return nil
}

// JobRun records one job's execution window.
type JobRun struct {
	JobID      int
	AccelID    int
	Start, End float64 // cycles
}

// Frame is one bandwidth-allocation time frame: between consecutive job
// boundaries the allocation is constant (Fig. 4b).
type Frame struct {
	Start, End float64   // cycles
	JobID      []int     // per accel: live job ID, or -1 if idle
	AllocBW    []float64 // per accel: allocated bytes/cycle
}

// Result is the outcome of executing one mapping.
type Result struct {
	TotalCycles      float64
	Seconds          float64
	ThroughputGFLOPs float64
	Energy           float64   // job energy + leakage × makespan
	BusyCycles       []float64 // per-core cycles spent running jobs
	JobRuns          []JobRun
	Frames           []Frame
}

// CoreUtilization returns the fraction of the makespan each core spent
// busy.
func (r Result) CoreUtilization() []float64 {
	out := make([]float64, len(r.BusyCycles))
	if r.TotalCycles <= 0 {
		return out
	}
	for i, b := range r.BusyCycles {
		out[i] = b / r.TotalCycles
	}
	return out
}

// leakagePerPEPerCycle is the static-power term that makes energy (and
// hence EDP) mapping-dependent: idling cores still burn power until the
// group completes.
const leakagePerPEPerCycle = 0.05

// live is the in-flight job state of one sub-accelerator. An idle
// slot carries the sentinel live{job: -1}, so its req is always 0.
type live struct {
	job    int
	req    float64 // required bytes/cycle
	start  float64
	active bool
}

// KernelVersion is the simulator's numeric-behaviour version. The v2
// kernel reorders floating-point arithmetic, so fitness values differ
// from v1 in low-order bits; persisted fitness memos are only valid
// under the kernel that produced them, and internal/persist embeds
// this constant in the snapshot header so stale snapshots are rejected
// whole (the same one-time-break discipline as rng.Layout).
const KernelVersion = 2

// Options tunes the simulator.
type Options struct {
	CaptureFrames bool // record per-frame BW allocations (Fig. 15)
}

// Run executes the mapping against the job analysis table. It is a
// convenience wrapper over Simulator for one-shot callers: every call
// allocates fresh buffers, so the returned Result is caller-owned. Hot
// loops (the M3E evaluation engine) hold a Simulator instead and reuse
// its scratch across calls.
func Run(t *analyzer.Table, m Mapping, opt Options) (Result, error) {
	return NewSimulator(opt).Run(t, m)
}

// NoStallLowerBound returns the idealized makespan (cycles) if bandwidth
// were unlimited: the maximum per-queue sum of no-stall latencies. It is
// a useful sanity bound: Run can never beat it.
func NoStallLowerBound(t *analyzer.Table, m Mapping) float64 {
	var worst float64
	for a, q := range m.Queues {
		var sum float64
		for _, j := range q {
			sum += float64(t.At(j, a).Cycles)
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}
