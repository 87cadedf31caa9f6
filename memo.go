package magma

import (
	"math"

	"magma/internal/encoding"
)

// finished is one search as its problem's memo keeps it
// (engine.ProblemHandle.Remember): the schedule without its Mapping,
// which thaw decodes again from the Genome exactly as the search did,
// and with its Curve run-length encoded. A best-so-far curve steps only
// when the search improves, so a curve of thousands of samples keeps a
// few dozen runs and an entry stays a few KB.
type finished struct {
	sched Schedule // Mapping, Curve, Cache and Phases zero
	curve []curveRun
}

// curveRun is n consecutive curve samples of value v.
type curveRun struct {
	v float64
	n int
}

// freeze copies a finished search's schedule into its memo form; s
// stays the caller's.
func freeze(s Schedule) *finished {
	f := &finished{sched: Schedule{
		Genome:           s.Genome.Clone(),
		ThroughputGFLOPs: s.ThroughputGFLOPs,
		MakespanCycles:   s.MakespanCycles,
		EnergyUnits:      s.EnergyUnits,
		Fitness:          s.Fitness,
		Mapper:           s.Mapper,
		Samples:          s.Samples,
		Asked:            s.Asked,
	}}
	for _, v := range s.Curve {
		// Runs compare bits, so a NaN sample and a -0 stay themselves.
		if n := len(f.curve); n > 0 && math.Float64bits(f.curve[n-1].v) == math.Float64bits(v) {
			f.curve[n-1].n++
			continue
		}
		f.curve = append(f.curve, curveRun{v: v, n: 1})
	}
	return f
}

// thaw returns a schedule bit-identical to the one freeze was given,
// sharing no memory with the memo, with cache as its counters and no
// phase timings: a memo hit runs no generation.
func (f *finished) thaw(nAccels int, cache CacheStats) Schedule {
	s := f.sched
	s.Genome = f.sched.Genome.Clone()
	s.Mapping = encoding.Decode(s.Genome, nAccels)
	// A search appends one curve sample per consumed sample, so the
	// runs add up to Samples.
	s.Curve = make([]float64, s.Samples)
	rest := s.Curve
	for _, r := range f.curve {
		for i := range rest[:r.n] {
			rest[i] = r.v
		}
		rest = rest[r.n:]
	}
	s.Cache = cache
	return s
}
