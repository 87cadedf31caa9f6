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
//     system bandwidth per cycle, so the makespan is at least
//     total-traffic / system-BW cycles.
//
// The true simulated makespan is max(compute, bandwidth) or worse, up
// to the simulator's retirement tolerances (see Result). The per-(job,
// accel) constants are copied at construction into one array of
// structs, so every walk over a schedule loads one row per job; a
// Bounds is immutable after construction and safe to share across
// goroutines.
type Bounds struct {
	nJobs   int
	nAccels int
	rows    []boundRow // [j*nAccels+a]
	// virtualOK is false when some entry is bandwidth-free (req ≤
	// 1e-12): the virtual-time makespan is then unavailable (see
	// Virtual).
	virtualOK bool

	sysBW      float64 // bytes/cycle
	invBW      float64 // 1 / sysBW
	spanSlack  float64 // absolute slack of Virtual's makespan bracket, cycles
	totalFLOPs float64
	leakPEs    float64 // leakagePerPEPerCycle × total PEs
}

// boundRow is one (job, accel) entry's constants.
type boundRow struct {
	cycles  float64 // no-stall latency, cycles
	traffic float64 // DRAM traffic, bytes (0 when bandwidth-free)
	req     float64 // required bytes/cycle
	energy  float64 // job energy
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

// NewBounds copies the table's roofline constants. Mirrors Run's
// bandwidth-free threshold: jobs with BWPerCycle <= 1e-12 move no bytes.
func NewBounds(t *analyzer.Table) *Bounds {
	nJobs, nAccels := t.NumJobs(), t.NumAccels()
	b := &Bounds{
		nJobs:     nJobs,
		nAccels:   nAccels,
		rows:      make([]boundRow, nJobs*nAccels),
		virtualOK: true,
		sysBW:     t.Platform.SystemBWBytesPerCycle(),
	}
	b.invBW = 1 / b.sysBW
	var peakReq float64 // Σ_a max_j req(j, a)
	for a := 0; a < nAccels; a++ {
		var most float64
		for j := 0; j < nJobs; j++ {
			e := t.At(j, a)
			r := &b.rows[j*nAccels+a]
			r.cycles, r.req, r.energy = float64(e.Cycles), e.BWPerCycle, e.Energy
			if e.BWPerCycle > 1e-12 {
				r.traffic = float64(e.Cycles) * e.BWPerCycle
			} else {
				b.virtualOK = false
			}
			most = max(most, e.BWPerCycle)
		}
		peakReq += most
	}
	b.spanSlack = float64(nJobs) * virtualWindow * max(1, peakReq*b.invBW)
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

// HasVirtual reports whether Virtual is available: the table has no
// bandwidth-free entry.
func (b *Bounds) HasVirtual() bool { return b.virtualOK }

// CoreBound is one core's roofline accumulator: the sum of its queued
// jobs' no-stall cycles, DRAM traffic and job energy. Sums are in queue
// order, so two identical queues produce bit-identical accumulators.
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
		r := &b.rows[j*b.nAccels+a]
		cb.Cycles += r.cycles
		cb.Traffic += r.traffic
		cb.Energy += r.energy
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

// Roofline is one schedule's roofline sums: the busiest core's no-stall
// cycles, the group's DRAM bytes and its job energy (zero when not
// asked for). RooflineResult turns it into the optimistic Result, and
// VirtualCut reads it to bound the rest of a walk it stops.
type Roofline struct {
	Compute float64
	Bytes   float64
	Energy  float64
}

// GenomeRoofline prices a genome's roofline straight from its genes,
// with no decode: accel[j] is the core job j runs on and prio[j] its
// priority gene. Both rooflines are per-core sums, so the priorities
// cannot move them. The walk sums job energy only when energy is set
// (only the energy objectives read it). Only the compute roofline needs
// per-core state, kept in cycles (length NumAccels, overwritten). The
// sums run in job order rather than queue order, so the result agrees
// with CoresInto up to rounding — far inside the bound's slack — rather
// than bit for bit. It allocates nothing.
//
// The same walk checks the genes: ok is false, and the Roofline zero,
// unless accel and prio hold one gene per job of the table, each accel
// gene naming a core in [0, NumAccels()) and each priority in [0, 1)
// (NaN is not) — exactly the genomes encoding.Genome.Validate accepts.
// A caller that must validate the genome anyway (the search runner's
// pruning pass) needs no second walk.
func (b *Bounds) GenomeRoofline(cycles []float64, accel []int, prio []float64, energy bool) (r Roofline, ok bool) {
	if len(accel) != b.nJobs || len(prio) != b.nJobs {
		return Roofline{}, false
	}
	clear(cycles)
	for j, a := range accel {
		if p := prio[j]; uint(a) >= uint(b.nAccels) || !(p >= 0 && p < 1) {
			return Roofline{}, false
		}
		row := &b.rows[j*b.nAccels+a]
		cycles[a] += row.cycles
		r.Bytes += row.traffic
		if energy {
			r.Energy += row.energy
		}
	}
	for _, c := range cycles {
		if c > r.Compute {
			r.Compute = c
		}
	}
	return r, true
}

// RooflineResult is the optimistic Result of roofline r: Result's
// makespan bound and formulas, with r's job energy.
func (b *Bounds) RooflineResult(r Roofline) Result {
	return b.result(b.lowerBound(r.Compute, r.Bytes), r.Energy)
}

// roofline sums the roofline of decoded schedule m, each core in queue
// order, with its job energy.
func (b *Bounds) roofline(m *Mapping) Roofline {
	var r Roofline
	for a, q := range m.Queues {
		cb := b.Core(a, q)
		r.Compute = max(r.Compute, cb.Cycles)
		r.Bytes += cb.Traffic
		r.Energy += cb.Energy
	}
	return r
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

// Slack of the virtual-time bracket (see Virtual). virtualWindow is
// Run's virtual retirement window: a BW job retires once its key is
// within 1e-6 of the virtual clock.
const (
	virtualWindow   = 1e-6
	virtualSlackRel = 1e-9
)

// VirtualScratch is the working storage of Virtual: one slot per core
// with a running job. The zero value is ready; it grows on first use
// and is then reused without allocating. Like a Simulator, one
// VirtualScratch must not be shared between goroutines.
type VirtualScratch struct {
	end  []float64 // virtual instant the slot's running job ends
	req  []float64 // the running job's bandwidth requirement
	core []int     // the slot's core
	next []int     // cursor into the slot's core queue
}

// Virtual brackets the Result Run would return for the valid mapping m
// (Mapping.Validate) without simulating it. Run's allocator slows every
// live job by one common factor, scale = min(1, sysBW/R) with R the
// summed requirement of the live jobs, so in the virtual time V of
// Run's derivation (dV = scale·dt) every job lasts exactly its no-stall
// cycles: core a's job boundaries are the prefix sums of its queue's
// cycles, and the wall-clock makespan is the integral
//
//	T = ∫ max(1, R(V)/sysBW) dV
//
// over the merged boundaries of every core — one pass over the jobs,
// with no event heap, no division and no JobRuns. best is the
// optimistic Result (shortest makespan, least energy) and worst the
// pessimistic one, both built by Run's epilogue formulas, so for every
// objective the framework optimizes the fitness of worst is at most,
// and the fitness of best at least, the fitness of Run's Result. ok is
// false, and both Results zero, when the table has a bandwidth-free
// entry: such a job runs in wall time, off the virtual clock.
//
// The makespan slack is per table: Run retires a job up to 1e-6 of
// virtual time early, and each such shift moves the wall clock by at
// most 1e-6 × max(1, Σ_a max_j req(j, a) / sysBW), so nJobs of them
// bound the absolute term; a relative 1e-9 covers the rounding of both
// integrations, which measure within 1e-15 of each other. Run sums job
// energy in retirement order and Virtual per core in queue order, so
// the job energy carries the same relative slack.
func (b *Bounds) Virtual(s *VirtualScratch, m *Mapping) (best, worst Result, ok bool) {
	if !b.virtualOK {
		return Result{}, Result{}, false
	}
	best, worst, _ = b.VirtualCut(s, m, b.roofline(m), math.Inf(1))
	return best, worst, true
}

// VirtualCut is Virtual for a caller that already holds m's roofline r
// (its Energy may be zero, or summed in another order: it only feeds
// the Results' energy) and needs the bracket only while the optimistic
// makespan can stay at or below cut. It requires HasVirtual.
//
// At every job boundary before the last, at virtual instant v, the
// makespan is at least the span integrated so far plus
// max(r.Compute − v, unmoved bytes / sysBW): the busiest core still has
// r.Compute − v of virtual time to run, and wall time passes no slower
// than virtual time; the bytes not yet moved need at least their
// transfer time at the full system bandwidth. The bound never falls
// along the walk. Slacked like best's makespan, once it exceeds cut the
// walk stops: halted is true, best is the optimistic Result at that
// bound — at most the full walk's makespan and above cut — and worst is
// zero. A walk that never exceeds cut returns exactly what the uncut
// walk (cut +Inf, as Virtual runs it) returns for the same r.
func (b *Bounds) VirtualCut(s *VirtualScratch, m *Mapping, r Roofline, cut float64) (best, worst Result, halted bool) {
	span, halted := b.virtual(s, m, r, cut)
	best = b.result(b.bestSpan(span), r.Energy*(1-virtualSlackRel))
	if halted {
		return best, Result{}, true
	}
	worst = b.result(span*(1+virtualSlackRel)+b.spanSlack, r.Energy*(1+virtualSlackRel))
	return best, worst, false
}

// bestSpan slacks a virtual-time makespan (or lower bound on one) into
// the optimistic makespan of best.
func (b *Bounds) bestSpan(span float64) float64 {
	return max(0, span*(1-virtualSlackRel)-b.spanSlack)
}

// EnergyLine returns the terms of the optimistic Result's energy for a
// schedule with roofline r: VirtualCut's best has Energy = base +
// perCycle × TotalCycles. A caller inverting an energy objective for a
// cut needs them.
func (b *Bounds) EnergyLine(r Roofline) (base, perCycle float64) {
	return r.Energy * (1 - virtualSlackRel), b.leakPEs
}

// virtual integrates the virtual-time makespan of m. It merges the
// cores' job boundaries by scanning the slots of the cores still
// running for the earliest end; ties retire one after the other with a
// zero-length step in between. A core that drains gives its slot to the
// last one. When the slacked lower bound of VirtualCut exceeds cut at a
// boundary before the last, it returns that bound and true instead.
func (b *Bounds) virtual(s *VirtualScratch, m *Mapping, r Roofline, cut float64) (span float64, halted bool) {
	nA := b.nAccels
	s.end, s.req = grow(s.end, nA), grow(s.req, nA)
	s.core, s.next = grow(s.core, nA), grow(s.next, nA)
	end, req, core, next := s.end, s.req, s.core, s.next
	n := 0           // running slots
	var need float64 // R: summed requirement of the running jobs
	for a, q := range m.Queues {
		if len(q) == 0 {
			continue
		}
		row := &b.rows[q[0]*nA+a]
		end[n], req[n], core[n], next[n] = row.cycles, row.req, a, 1
		need += row.req
		n++
	}
	// left is all of the schedule's bytes over sysBW and moved the part
	// moved so far, so left − moved is the least time the rest can take.
	var v, moved float64
	left := r.Bytes * b.invBW
	// A bound past rawCut is (up to rounding, which the second test
	// settles) one whose slacked value is past cut.
	rawCut := (cut + b.spanSlack) / (1 - virtualSlackRel)
	for n > 0 {
		k := 0
		for x := 1; x < n; x++ {
			if end[x] < end[k] {
				k = x
			}
		}
		e := end[k]
		w := need * b.invBW
		if w > 1 {
			span += (e - v) * w
		} else {
			span += e - v
		}
		moved += (e - v) * w
		v = e
		need -= req[k]
		a := core[k]
		if q, c := m.Queues[a], next[k]; c < len(q) {
			row := &b.rows[q[c]*nA+a]
			end[k], req[k], next[k] = e+row.cycles, row.req, c+1
			need += row.req
		} else {
			n--
			end[k], req[k], core[k], next[k] = end[n], req[n], core[n], next[n]
			if n == 0 {
				break
			}
		}
		if lb := span + max(r.Compute-v, left-moved); lb > rawCut && b.bestSpan(lb) > cut {
			return lb, true
		}
	}
	return span, false
}
