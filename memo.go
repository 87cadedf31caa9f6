package magma

import (
	"math"

	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/persist"
)

// freeze copies a finished search's schedule into the memo entry its
// problem keeps under key (engine.ProblemHandle.Remember): the schedule
// without its Mapping, which thaw decodes again from the Genome exactly
// as the search did, and with its Curve run-length encoded, so an entry
// stays a few KB. s stays the caller's.
func freeze(key engine.MemoKey, s Schedule) persist.MemoEntry {
	e := persist.MemoEntry{
		Key:              key,
		Method:           s.Mapper,
		Asked:            s.Asked,
		ThroughputGFLOPs: s.ThroughputGFLOPs,
		MakespanCycles:   s.MakespanCycles,
		EnergyUnits:      s.EnergyUnits,
		Fitness:          s.Fitness,
		Genome:           s.Genome.Clone(),
	}
	for _, v := range s.Curve {
		// Runs compare bits, so a NaN sample and a -0 stay themselves.
		if n := len(e.Curve); n > 0 && math.Float64bits(e.Curve[n-1].V) == math.Float64bits(v) {
			e.Curve[n-1].N++
			continue
		}
		e.Curve = append(e.Curve, persist.CurveRun{V: v, N: 1})
	}
	return e
}

// thaw returns a schedule bit-identical to the one freeze was given,
// sharing no memory with the memo, with cache as its counters and no
// phase timings: a memo hit runs no generation.
func thaw(e persist.MemoEntry, nAccels int, cache CacheStats) Schedule {
	s := Schedule{
		Genome:           e.Genome.Clone(),
		ThroughputGFLOPs: e.ThroughputGFLOPs,
		MakespanCycles:   e.MakespanCycles,
		EnergyUnits:      e.EnergyUnits,
		Fitness:          e.Fitness,
		Mapper:           e.Method,
		Cache:            cache,
		// Every asked genome is one sample, and a search appends one
		// curve sample per consumed sample, so the runs add up to it.
		Samples: e.Asked,
		Asked:   e.Asked,
	}
	s.Mapping = encoding.Decode(s.Genome, nAccels)
	s.Curve = make([]float64, e.Asked)
	rest := s.Curve
	for _, r := range e.Curve {
		for i := range rest[:r.N] {
			rest[i] = r.V
		}
		rest = rest[r.N:]
	}
	return s
}
