package sim

import (
	"fmt"
	"math"

	"magma/internal/analyzer"
)

// oracle is kernel v1, Algorithm 1 taken literally, kept as the
// reference the shipped event kernel is compared against: every frame
// re-divides the bandwidth over all slots, rescans for the earliest
// completion and decrements every live job's remaining work —
// O(nJobs·nAccels) per run. It borrows the Simulator's validation,
// scratch and Result epilogue, so only the loop itself differs, and it
// never passes through the sim.kernel fault point.
type oracle struct {
	*Simulator
	work []float64 // per accel: outstanding demand, remaining latency × req
	noBW []float64 // per accel: remaining cycles of a BW-free job
}

func newOracle(opt Options) *oracle { return &oracle{Simulator: NewSimulator(opt)} }

// runOracle is the one-shot form of oracle.Run, mirroring package Run.
func runOracle(t *analyzer.Table, m Mapping) (Result, error) {
	return newOracle(Options{}).Run(t, m)
}

// Run executes the mapping with the v1 frame loop.
func (o *oracle) Run(t *analyzer.Table, m Mapping) (Result, error) {
	nJobs, nAccels, sysBW, err := o.prepare(t, m)
	if err != nil {
		return Result{}, err
	}
	o.work = grow(o.work, nAccels)
	o.noBW = grow(o.noBW, nAccels)
	now := 0.0
	for a := 0; a < nAccels; a++ {
		o.launch(m, a, now)
	}
	remaining := nJobs
	for remaining > 0 {
		allocate(o.state, o.alloc, sysBW)
		// Find the earliest completion among live jobs.
		minRuntime := math.Inf(1)
		for a := range o.state {
			st := &o.state[a]
			if !st.active {
				continue
			}
			var runtime float64
			if st.req <= 1e-12 {
				runtime = o.noBW[a]
			} else {
				runtime = o.work[a] / o.alloc[a]
			}
			if runtime < minRuntime {
				minRuntime = runtime
			}
		}
		if math.IsInf(minRuntime, 1) {
			return Result{}, fmt.Errorf("sim: no live jobs but %d remaining", remaining)
		}
		if o.opt.CaptureFrames {
			o.captureFrame(now, now+minRuntime, nAccels)
		}
		now += minRuntime
		// Progress every live job; retire the finished ones.
		for a := range o.state {
			st := &o.state[a]
			if !st.active {
				continue
			}
			var done bool
			if st.req <= 1e-12 {
				o.noBW[a] -= minRuntime
				done = o.noBW[a] <= 1e-9
			} else {
				o.work[a] -= minRuntime * o.alloc[a]
				done = o.work[a] <= 1e-6*st.req // tolerance in work units
			}
			if done {
				o.jobRuns = append(o.jobRuns, JobRun{JobID: st.job, AccelID: a, Start: st.start, End: now})
				remaining--
				o.launch(m, a, now)
			}
		}
	}
	return o.finish(now, nAccels), nil
}

// launch advances accel a's queue cursor and installs its next job as
// the live job at time now (idle sentinel when the queue is drained).
func (o *oracle) launch(m Mapping, a int, now float64) {
	if o.next[a] < len(m.Queues[a]) {
		j := m.Queues[a][o.next[a]]
		o.next[a]++
		i := j*o.soa.nAccels + a
		o.state[a] = live{job: j, start: now, active: true, req: o.soa.req[i]}
		o.work[a], o.noBW[a] = 0, 0
		if o.state[a].req <= 1e-12 {
			o.noBW[a] = o.soa.cycles[i]
		} else {
			o.work[a] = o.soa.work[i]
		}
		return
	}
	o.state[a] = live{job: -1}
}

// allocate is the Algorithm 1 BW Allocator: it divides the system
// bandwidth among the live jobs in the ratio of their requirements,
// writing per-core grants into alloc. An inactive slot always carries
// req == 0 (the idle sentinel), so summing and scaling run branch-free
// over every slot — inactive cores contribute 0 to the sum and receive
// 0*scale, both exact.
func allocate(state []live, alloc []float64, sysBW float64) {
	var sumReq float64
	for a := range state {
		sumReq += state[a].req
	}
	// Unsaturated frames grant every requirement (scale 1, exact);
	// saturated frames scale uniformly by sysBW/Σreq.
	scale := 1.0
	if sumReq > sysBW {
		scale = sysBW / sumReq
	}
	for a := range state {
		alloc[a] = state[a].req * scale
	}
}
