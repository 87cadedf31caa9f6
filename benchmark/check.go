package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"magma"
	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/serve"
	"magma/internal/sim"
)

// evaluation is what a returned schedule claims about itself.
type evaluation struct {
	fitness, throughput, makespan, energy float64
}

func (e evaluation) bits() [4]uint64 {
	return [4]uint64{math.Float64bits(e.fitness), math.Float64bits(e.throughput),
		math.Float64bits(e.makespan), math.Float64bits(e.energy)}
}

// checkMapping checks one returned schedule against its problem: the
// queues must place every job exactly once, and re-simulating them must
// reproduce the reported evaluation bit for bit.
func checkMapping(v *sim.Validator, prob *m3e.Problem, queues [][]int, reported evaluation) error {
	m := sim.Mapping{Queues: queues}
	if err := v.Validate(m, prob.NumJobs(), prob.NumAccels()); err != nil {
		return fmt.Errorf("invalid mapping: %w", err)
	}
	fit, res, err := prob.EvaluateMapping(m)
	if err != nil {
		return fmt.Errorf("re-simulating: %w", err)
	}
	got := evaluation{fitness: fit, throughput: res.ThroughputGFLOPs, makespan: res.TotalCycles, energy: res.Energy}
	if got.bits() != reported.bits() {
		return fmt.Errorf("re-simulation gives %+v, schedule reports %+v", got, reported)
	}
	return nil
}

// checkGenome checks that a search's best genome decodes to the mapping
// it returned.
func checkGenome(g encoding.Genome, nAccels int, queues [][]int) error {
	if err := g.Validate(g.NumJobs(), nAccels); err != nil {
		return fmt.Errorf("invalid genome: %w", err)
	}
	if !slices.EqualFunc(encoding.Decode(g, nAccels).Queues, queues, slices.Equal[[]int]) {
		return fmt.Errorf("genome decodes to a different mapping than the one returned")
	}
	return nil
}

// checkIdentical checks that every response to one body carries
// byte-identical groups: the first response seen for key is the
// reference for the rest.
func checkIdentical(seen map[string][]byte, key string, groups []byte) error {
	prev, ok := seen[key]
	if !ok {
		seen[key] = groups
		return nil
	}
	if !bytes.Equal(prev, groups) {
		return fmt.Errorf("repeated body %s: groups differ from its first response", key)
	}
	return nil
}

// checkResolved checks a served result against the same request solved
// on a fresh single Solver: every group's queues and evaluation must be
// identical.
func checkResolved(served []serve.GroupSchedule, local magma.StreamResult) error {
	if len(served) != len(local.Schedules) {
		return fmt.Errorf("served %d groups, a fresh solver %d", len(served), len(local.Schedules))
	}
	for gi, g := range served {
		l := local.Schedules[gi]
		if g.Mapper != l.Mapper || evaluationOfGroup(g).bits() != evaluationOf(l).bits() ||
			!slices.EqualFunc(g.Queues, l.Mapping.Queues, slices.Equal[[]int]) {
			return fmt.Errorf("group %d differs from a fresh single-solver run", gi)
		}
	}
	return nil
}

func evaluationOf(s magma.Schedule) evaluation {
	return evaluation{fitness: s.Fitness, throughput: s.ThroughputGFLOPs, makespan: s.MakespanCycles, energy: s.EnergyUnits}
}

func evaluationOfGroup(g serve.GroupSchedule) evaluation {
	return evaluation{fitness: g.Fitness, throughput: g.ThroughputGFLOPs, makespan: g.MakespanCycles, energy: g.EnergyUnits}
}

// heraldMakespan is the makespan of the Herald-like heuristic's schedule
// for g, the reference a search's quality is measured against: a
// schedule's quality is its throughput over the heuristic's, which is
// the heuristic's makespan over its own.
func heraldMakespan(g magma.Group, pf magma.Platform) (float64, error) {
	s, err := magma.Optimize(g, pf, magma.Options{Mapper: "Herald-like"})
	return s.MakespanCycles, err
}

// digestWriter accumulates an op's result in a canonical binary form:
// per schedule, its queues and the bits of its evaluation.
type digestWriter struct{ buf bytes.Buffer }

func (d *digestWriter) schedule(queues [][]int, e evaluation) {
	put := func(x uint64) { d.buf.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	put(uint64(len(queues)))
	for _, q := range queues {
		put(uint64(len(q)))
		for _, j := range q {
			put(uint64(j))
		}
	}
	for _, b := range e.bits() {
		put(b)
	}
}

func (d *digestWriter) sum() [32]byte { return sha256.Sum256(d.buf.Bytes()) }

// resultDigest hashes the per-op digests of ops[:n] in op order.
func resultDigest(ops []opResult, n int) string {
	h := sha256.New()
	for _, op := range ops[:n] {
		h.Write(op.sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
