package sim

import (
	"math"

	"magma/internal/analyzer"
	"magma/internal/platform"
)

// Bounds prices the analytical makespan lower bound for mappings over
// one job analysis table. Two rooflines, both optimistic:
//
//   - compute roofline: a core can never finish its queue faster than
//     the sum of the queued jobs' no-stall latencies — bandwidth
//     contention only ever slows a core down;
//   - bandwidth roofline: the group moves a fixed number of DRAM bytes
//     (each job's no-stall latency × required bytes/cycle on its
//     assigned core), and the allocator never grants more than the
//     system bandwidth per cycle in either policy, so the makespan is
//     at least total-traffic / system-BW cycles.
//
// The true simulated makespan is max(compute, bandwidth) or worse, up
// to the simulator's retirement tolerances (see Result). All per-(job,
// accel) constants are flattened at construction so per-core sums are
// cache-friendly; a Bounds is immutable after construction and safe to
// share across goroutines.
type Bounds struct {
	nAccels int
	cycles  []float64 // [j*nAccels+a] no-stall latency, cycles
	traffic []float64 // [j*nAccels+a] DRAM traffic, bytes (0 when BW-free)
	energy  []float64 // [j*nAccels+a] job energy

	sysBW      float64 // bytes/cycle
	totalFLOPs float64
	leakPEs    float64 // leakagePerPEPerCycle × total PEs
}

// Simulator retirement tolerances (noBW <= 1e-9 cycles; work <=
// 1e-6·req, i.e. up to 1e-6 cycles per job at best-case transfer rate)
// can finish jobs fractionally before the ideal roofline. The bound is
// relaxed by these slacks so "bound ≤ simulated makespan" holds exactly,
// not just up to float noise.
const (
	boundSlackRel = 1e-9
	boundSlackAbs = 1e-3
)

// NewBounds flattens the table's roofline constants. Mirrors launch's
// BW-free threshold: jobs with BWPerCycle <= 1e-12 move no bytes.
func NewBounds(t *analyzer.Table) *Bounds {
	nJobs, nAccels := t.NumJobs(), t.NumAccels()
	b := &Bounds{
		nAccels: nAccels,
		cycles:  make([]float64, nJobs*nAccels),
		traffic: make([]float64, nJobs*nAccels),
		energy:  make([]float64, nJobs*nAccels),
		sysBW:   t.Platform.SystemBWBytesPerCycle(),
	}
	for j := 0; j < nJobs; j++ {
		for a := 0; a < nAccels; a++ {
			e := t.At(j, a)
			i := j*nAccels + a
			b.cycles[i] = float64(e.Cycles)
			if e.BWPerCycle > 1e-12 {
				b.traffic[i] = float64(e.Cycles) * e.BWPerCycle
			}
			b.energy[i] = e.Energy
		}
	}
	b.totalFLOPs = float64(t.Group.TotalFLOPs())
	var pes float64
	for _, sa := range t.Platform.SubAccels {
		pes += float64(sa.Config.PEs())
	}
	b.leakPEs = leakagePerPEPerCycle * pes
	return b
}

// NumAccels returns the accelerator count the bounds were built for.
func (b *Bounds) NumAccels() int { return b.nAccels }

// CoreBound is one core's roofline accumulator: the sum of its queued
// jobs' no-stall cycles, DRAM traffic and job energy. Sums are in queue
// order, so two identical queues produce bit-identical accumulators —
// the property that makes parent-copy and incremental updates exact.
type CoreBound struct {
	Cycles  float64
	Traffic float64
	Energy  float64
}

// CoreBounds is the per-core accumulator vector of one mapping. Since
// each core sums independently, a child whose queues changed on a few
// cores can copy its parent's values for the others and re-sum only
// the changed ones, bit-identically.
type CoreBounds []CoreBound

// Core sums the roofline constants of queue q on accelerator a.
func (b *Bounds) Core(a int, q []int) CoreBound {
	var cb CoreBound
	for _, j := range q {
		i := j*b.nAccels + a
		cb.Cycles += b.cycles[i]
		cb.Traffic += b.traffic[i]
		cb.Energy += b.energy[i]
	}
	return cb
}

// CoresInto recomputes every core's accumulator from the mapping (the
// full-fallback path). cb must have length m's queue count.
func (b *Bounds) CoresInto(cb CoreBounds, m *Mapping) {
	for a, q := range m.Queues {
		cb[a] = b.Core(a, q)
	}
}

// LowerBound folds the per-core accumulators into the makespan lower
// bound in cycles, with the retirement-tolerance slack applied.
func (b *Bounds) LowerBound(cb CoreBounds) float64 {
	var compute, bytes float64
	for i := range cb {
		if cb[i].Cycles > compute {
			compute = cb[i].Cycles
		}
		bytes += cb[i].Traffic
	}
	return b.lowerBound(compute, bytes)
}

// lowerBound folds the compute roofline (the busiest core's cycles)
// and the group's DRAM bytes into the slack-adjusted makespan bound.
func (b *Bounds) lowerBound(compute, bytes float64) float64 {
	lb := compute
	if bw := bytes / b.sysBW; bw > lb {
		lb = bw
	}
	lb = lb*(1-boundSlackRel) - boundSlackAbs
	if lb < 0 {
		return 0
	}
	return lb
}

// Result builds the optimistic Result implied by the lower bound,
// mirroring Run's epilogue formulas term for term: TotalCycles is the
// (slack-adjusted) bound, job energy is exact (placement is known), and
// the leakage term uses the bound cycles. For every objective the
// framework optimizes — throughput, latency, energy, EDP — the fitness
// of this Result upper-bounds the fitness of the true simulation, which
// is what lets the search runner discard candidates whose bound fitness
// already misses the elite floor.
func (b *Bounds) Result(cb CoreBounds) Result {
	var jobEnergy float64
	for i := range cb {
		jobEnergy += cb[i].Energy
	}
	return b.result(b.LowerBound(cb), jobEnergy)
}

// GenomeResult is Result priced straight from a genome's accel genes
// (accel[j] is the core job j runs on), with no decode: both rooflines
// are per-core sums, so the priority genes cannot move them. Only the
// compute roofline needs per-core state, kept in cycles (length
// NumAccels, overwritten); traffic and energy are plain totals. The
// sums run in job order rather than queue order, so the result agrees
// with Result over CoresInto up to rounding — far inside the bound's
// slack — rather than bit for bit. It allocates nothing.
func (b *Bounds) GenomeResult(cycles []float64, accel []int) Result {
	clear(cycles)
	var bytes, jobEnergy float64
	for j, a := range accel {
		i := j*b.nAccels + a
		cycles[a] += b.cycles[i]
		bytes += b.traffic[i]
		jobEnergy += b.energy[i]
	}
	var compute float64
	for _, c := range cycles {
		if c > compute {
			compute = c
		}
	}
	return b.result(b.lowerBound(compute, bytes), jobEnergy)
}

// result is the optimistic Result for makespan bound lb and exact job
// energy jobEnergy.
func (b *Bounds) result(lb, jobEnergy float64) Result {
	res := Result{TotalCycles: lb, Seconds: lb / platform.ClockHz}
	if res.Seconds > 0 {
		res.ThroughputGFLOPs = b.totalFLOPs / res.Seconds / 1e9
	} else {
		// A zero bound carries no information; an infinite throughput
		// keeps the fitness bound trivially un-prunable.
		res.ThroughputGFLOPs = math.Inf(1)
	}
	res.Energy = jobEnergy + b.leakPEs*res.TotalCycles
	return res
}
