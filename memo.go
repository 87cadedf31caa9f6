package magma

import (
	"slices"

	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/persist"
)

// freeze copies a finished search's schedule into the memo entry its
// problem keeps under key (engine.ProblemHandle.Remember): the schedule
// without its Mapping, which thaw decodes again from the Genome exactly
// as the search did. s stays the caller's.
func freeze(key engine.MemoKey, s Schedule) persist.MemoEntry {
	return persist.MemoEntry{
		Key:              key,
		Method:           s.Mapper,
		Asked:            s.Asked,
		ThroughputGFLOPs: s.ThroughputGFLOPs,
		MakespanCycles:   s.MakespanCycles,
		EnergyUnits:      s.EnergyUnits,
		Fitness:          s.Fitness,
		Genome:           s.Genome.Clone(),
		Curve:            slices.Clone(s.Curve),
	}
}

// thaw returns a schedule bit-identical to the one freeze was given,
// sharing no memory with the memo, with cache as its counters and no
// phase timings: a memo hit runs no generation.
func thaw(e persist.MemoEntry, nAccels int, cache CacheStats) Schedule {
	g := e.Genome.Clone()
	return Schedule{
		Mapping:          encoding.Decode(g, nAccels),
		Genome:           g,
		ThroughputGFLOPs: e.ThroughputGFLOPs,
		MakespanCycles:   e.MakespanCycles,
		EnergyUnits:      e.EnergyUnits,
		Fitness:          e.Fitness,
		Curve:            slices.Clone(e.Curve),
		Mapper:           e.Method,
		Cache:            cache,
		// Every asked genome is one sample, and the curve's runs add up
		// to the samples.
		Samples: e.Asked,
		Asked:   e.Asked,
	}
}
