package sim

import (
	"fmt"
	"math"

	"magma/internal/analyzer"
	"magma/internal/fault"
	"magma/internal/platform"
)

// Simulator is a reusable executor of Algorithm 1. All working storage
// — live-job state, bandwidth grants, queue cursors, completion heaps,
// the JobRuns/BusyCycles/Frames of the Result — lives in scratch
// buffers owned by the Simulator, so Run performs zero heap allocations
// once the buffers have grown to the problem size. That makes one
// Simulator per search the unit of fitness evaluation.
//
// Ownership rule: the slices inside a returned Result alias the
// Simulator's scratch and are only valid until the next Run call on the
// same Simulator. Callers that retain a Result across Runs (or hand it
// to another goroutine) must deep-copy it first; one-shot callers can
// use the package-level Run, which uses a throwaway Simulator and hence
// returns a caller-owned Result. A Simulator must not be shared between
// goroutines.
type Simulator struct {
	opt Options

	state   []live
	alloc   []float64
	next    []int     // per-accel cursor into its queue
	seen    []bool    // Validate scratch
	jobRuns []JobRun  // Result.JobRuns backing
	busy    []float64 // Result.BusyCycles backing
	frames  []Frame   // Result.Frames backing (CaptureFrames only)

	bwHeap []event // pending BW-job completions, virtual time
	nbHeap []event // pending BW-free completions, wall time
	retire []int   // per-event retirement batch

	// Per-table constants, memoized on first Run against a table: the
	// group's total work and the platform's PE count are invariants of
	// the problem, not of the mapping, and walking every job's layer
	// descriptor per simulation dominated the post-loop bookkeeping.
	// The flattened SoA copy of the table rides on the same memo.
	memoTable  *analyzer.Table
	totalFLOPs float64
	totalPEs   float64
	memoBounds *Bounds
	soa        soaTable
}

// soaTable is a flattened structure-of-arrays copy of the analyzer
// table, indexed j*nAccels+a: launches and the energy epilogue walk
// contiguous float64 arrays instead of pointer-chasing t.At through
// Entries[j][a]. work precomputes a launch's outstanding-demand product
// float64(Cycles)×BWPerCycle once per table.
type soaTable struct {
	nAccels int
	cycles  []float64 // no-stall latency, cycles
	req     []float64 // required bytes/cycle
	work    []float64 // cycles × req — outstanding demand at launch
	energy  []float64 // job energy
}

// event is one pending completion: key is the completion instant on
// the owning heap's clock (virtual time for BW jobs, wall time for
// BW-free jobs); exact key ties order by accel so the heap — and hence
// the retirement sweep — is deterministic.
type event struct {
	key   float64
	accel int
}

func eventLess(a, b event) bool {
	return a.key < b.key || (a.key == b.key && a.accel < b.accel)
}

// heapPush and heapPop are an inlined binary min-heap over the scratch
// slice — no container/heap interface boxing on the hot path.
func heapPush(h []event, e event) []event {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []event) []event {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && eventLess(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && eventLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}

// insertionSortInts orders the (almost always single-element)
// retirement batch by accel index without any interface machinery.
func insertionSortInts(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// tableConstants returns the memoized per-table invariants, refreshing
// the memo (including the SoA table copy) when the simulator is
// pointed at a different table.
func (s *Simulator) tableConstants(t *analyzer.Table) (totalFLOPs, totalPEs float64) {
	if s.memoTable != t {
		var pes float64
		for _, sa := range t.Platform.SubAccels {
			pes += float64(sa.Config.PEs())
		}
		s.memoTable, s.totalFLOPs, s.totalPEs = t, float64(t.Group.TotalFLOPs()), pes
		s.memoBounds = nil
		s.buildSoA(t)
	}
	return s.totalFLOPs, s.totalPEs
}

// buildSoA flattens the table into the Simulator's SoA scratch.
func (s *Simulator) buildSoA(t *analyzer.Table) {
	nJobs, nAccels := t.NumJobs(), t.NumAccels()
	n := nJobs * nAccels
	s.soa.nAccels = nAccels
	s.soa.cycles = grow(s.soa.cycles, n)
	s.soa.req = grow(s.soa.req, n)
	s.soa.work = grow(s.soa.work, n)
	s.soa.energy = grow(s.soa.energy, n)
	for j := 0; j < nJobs; j++ {
		row := t.Entries[j]
		base := j * nAccels
		for a := 0; a < nAccels; a++ {
			e := &row[a]
			s.soa.cycles[base+a] = float64(e.Cycles)
			s.soa.req[base+a] = e.BWPerCycle
			s.soa.work[base+a] = float64(e.Cycles) * e.BWPerCycle
			s.soa.energy[base+a] = e.Energy
		}
	}
}

// Bounds returns the memoized analytical-bound constants for the table,
// built on first use and refreshed alongside the other per-table memos
// when the simulator is pointed at a different table.
func (s *Simulator) Bounds(t *analyzer.Table) *Bounds {
	s.tableConstants(t)
	if s.memoBounds == nil {
		s.memoBounds = NewBounds(t)
	}
	return s.memoBounds
}

// NewSimulator builds a reusable simulator with the given options.
func NewSimulator(opt Options) *Simulator { return &Simulator{opt: opt} }

// grow returns s resized to n, reusing the backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// prepare validates the mapping, refreshes the per-table memos (SoA
// included) and resets the queue cursors and Result backing.
func (s *Simulator) prepare(t *analyzer.Table, m Mapping) (nJobs, nAccels int, sysBW float64, err error) {
	nJobs, nAccels = t.NumJobs(), t.NumAccels()
	s.seen = grow(s.seen, nJobs)
	if err = m.validate(nJobs, nAccels, s.seen); err != nil {
		return 0, 0, 0, err
	}
	sysBW = t.Platform.SystemBWBytesPerCycle()
	if sysBW <= 0 {
		return 0, 0, 0, fmt.Errorf("sim: non-positive system BW")
	}
	s.tableConstants(t)
	s.state = grow(s.state, nAccels)
	s.alloc = grow(s.alloc, nAccels)
	s.next = grow(s.next, nAccels)
	for a := 0; a < nAccels; a++ {
		s.next[a] = 0
	}
	if cap(s.jobRuns) < nJobs {
		s.jobRuns = make([]JobRun, 0, nJobs)
	}
	s.jobRuns = s.jobRuns[:0]
	s.frames = s.frames[:0]
	return nJobs, nAccels, sysBW, nil
}

// captureFrame appends one frame to the scratch-backed frame list,
// reusing the per-frame slices left over from earlier Runs.
func (s *Simulator) captureFrame(start, end float64, nAccels int) {
	var f Frame
	if n := len(s.frames); n < cap(s.frames) {
		f = s.frames[:n+1][n] // recycle the element's JobID/AllocBW
	}
	f.Start, f.End = start, end
	f.JobID = grow(f.JobID, nAccels)
	f.AllocBW = grow(f.AllocBW, nAccels)
	for a := range s.state {
		if s.state[a].active {
			f.JobID[a] = s.state[a].job
			f.AllocBW[a] = s.alloc[a]
		} else {
			f.JobID[a] = -1
			f.AllocBW[a] = 0
		}
	}
	s.frames = append(s.frames[:len(s.frames)], f)
}

// finish assembles the Result: per-core busy time and job energy
// folded from the JobRuns (energy via the SoA memo), plus the
// table-level throughput and leakage terms.
func (s *Simulator) finish(now float64, nAccels int) Result {
	s.busy = grow(s.busy, nAccels)
	for a := range s.busy {
		s.busy[a] = 0
	}
	var jobEnergy float64
	for i := range s.jobRuns {
		r := &s.jobRuns[i]
		s.busy[r.AccelID] += r.End - r.Start
		jobEnergy += s.soa.energy[r.JobID*nAccels+r.AccelID]
	}
	res := Result{JobRuns: s.jobRuns, BusyCycles: s.busy, TotalCycles: now}
	if s.opt.CaptureFrames {
		res.Frames = s.frames
	}
	res.Seconds = now / platform.ClockHz
	if res.Seconds > 0 {
		res.ThroughputGFLOPs = s.totalFLOPs / res.Seconds / 1e9
	}
	res.Energy = jobEnergy + leakagePerPEPerCycle*s.totalPEs*res.TotalCycles
	return res
}

// Run executes the mapping against the job analysis table. See the
// Simulator doc comment for the Result ownership rule.
//
// Derivation: with alloc_a = req_a·scale and scale = min(1, sysBW/Σreq)
// (the Algorithm 1 rule), define a global virtual clock V with
// dV = scale·dt. Every live BW job's normalized remaining demand
// work/req then decreases at rate exactly 1 in virtual time —
// regardless of later launches and retirements — so its completion
// instant is the single key kv = V_launch + work/req computed at
// launch. No per-frame bandwidth re-division, no O(accels)
// work-decrement sweep. BW-free jobs progress in wall time and live on
// a second heap keyed kw = now_launch + cycles. Each of the nJobs
// completions costs O(log nAccels) heap work, so a run is
// O(nJobs·log nAccels) after the O(nAccels) setup (plus O(nAccels) per
// event when capturing frames, which hot paths never do).
func (s *Simulator) Run(t *analyzer.Table, m Mapping) (Result, error) {
	if err := fault.Hit(fault.SimKernel); err != nil {
		return Result{}, fmt.Errorf("sim: kernel: %w", err)
	}
	nJobs, nAccels, sysBW, err := s.prepare(t, m)
	if err != nil {
		return Result{}, err
	}
	s.bwHeap = s.bwHeap[:0]
	s.nbHeap = s.nbHeap[:0]

	now, V := 0.0, 0.0
	// Σreq over every installed job, maintained incrementally (+req at
	// launch, −req at retirement). BW-free jobs contribute their raw
	// (≤1e-12) requirement, as in a sum over every live slot.
	var sumReq float64
	for a := 0; a < nAccels; a++ {
		sumReq += s.launchEvent(m, a, now, V)
	}
	remaining := nJobs
	for remaining > 0 {
		if len(s.bwHeap) == 0 && len(s.nbHeap) == 0 {
			return Result{}, fmt.Errorf("sim: no live jobs but %d remaining", remaining)
		}
		scale := 1.0
		if sumReq > sysBW {
			scale = sysBW / sumReq
		}
		// Wall-clock instant of each heap's next completion. Surviving
		// keys sit beyond their clock's tolerance window, so both
		// candidates are in the future: every event advances the clock
		// (or retires a zero-length job) and the loop terminates.
		tBW, tNB := math.Inf(1), math.Inf(1)
		if len(s.bwHeap) > 0 {
			tBW = now + (s.bwHeap[0].key-V)/scale
		}
		if len(s.nbHeap) > 0 {
			tNB = s.nbHeap[0].key
		}
		bwWins := tBW <= tNB
		tNext := tBW
		if !bwWins {
			tNext = tNB
		}
		if s.opt.CaptureFrames {
			for a := range s.state {
				s.alloc[a] = s.state[a].req * scale
			}
			s.captureFrame(now, tNext, nAccels)
		}
		// Advance both clocks. When a BW completion wins, land V exactly
		// on its key instead of integrating scale·dt — no drift between
		// the clock and the keys it is compared against.
		if bwWins {
			V = s.bwHeap[0].key
		} else {
			V += (tNext - now) * scale
		}
		now = tNext
		// Retire everything inside the tolerance window of the literal
		// frame loop (the reference in oracle_test.go):
		// work ≤ 1e-6·req ⇔ kv − V ≤ 1e-6, and noBW ≤ 1e-9 ⇔ kw − now ≤ 1e-9.
		s.retire = s.retire[:0]
		for len(s.bwHeap) > 0 && s.bwHeap[0].key <= V+1e-6 {
			s.retire = append(s.retire, s.bwHeap[0].accel)
			s.bwHeap = heapPop(s.bwHeap)
		}
		for len(s.nbHeap) > 0 && s.nbHeap[0].key <= now+1e-9 {
			s.retire = append(s.retire, s.nbHeap[0].accel)
			s.nbHeap = heapPop(s.nbHeap)
		}
		// Retire simultaneous completions in accel order, the frame
		// loop's sweep order, so JobRuns match the reference exactly;
		// the batch is almost always length 1.
		insertionSortInts(s.retire)
		for _, a := range s.retire {
			st := &s.state[a]
			s.jobRuns = append(s.jobRuns, JobRun{JobID: st.job, AccelID: a, Start: st.start, End: now})
			remaining--
			sumReq -= st.req
			sumReq += s.launchEvent(m, a, now, V)
		}
	}
	return s.finish(now, nAccels), nil
}

// launchEvent advances accel a's queue cursor, installs its next job
// and schedules the completion on the matching heap (virtual clock V
// for BW jobs, wall clock now for BW-free ones). It returns the
// installed job's bandwidth requirement — the caller's incremental
// Σreq update — or 0 for a drained queue.
func (s *Simulator) launchEvent(m Mapping, a int, now, V float64) float64 {
	if s.next[a] >= len(m.Queues[a]) {
		s.state[a] = live{job: -1}
		return 0
	}
	j := m.Queues[a][s.next[a]]
	s.next[a]++
	i := j*s.soa.nAccels + a
	req := s.soa.req[i]
	s.state[a] = live{job: j, start: now, active: true, req: req}
	if req <= 1e-12 {
		s.nbHeap = heapPush(s.nbHeap, event{key: now + s.soa.cycles[i], accel: a})
	} else {
		s.bwHeap = heapPush(s.bwHeap, event{key: V + s.soa.work[i]/req, accel: a})
	}
	return req
}
