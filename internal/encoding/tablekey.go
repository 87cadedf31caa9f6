package encoding

import (
	"math"

	"magma/internal/platform"
	"magma/internal/workload"
)

// TableKey is a stable 128-bit identity of the job-analysis table a
// (group, platform) pair would build: two independent 64-bit hash lanes
// (the same construction as Fingerprint) over everything the analyzer's
// cost model reads — per-job layer dimensions and batch sizes, in group
// order, plus every sub-accelerator configuration and the system
// bandwidth. analyzer.Build is a deterministic function of exactly this
// content, so equal keys mean interchangeable tables.
//
// The key is computable *without* building the table — that is the
// point: a long-lived engine hashes an incoming request and reuses the
// cached table (and, per objective, the memo of finished searches keyed
// on it) when the identity matches, skipping the profiling pass
// entirely. It is stable across process runs: no pointers, no map
// iteration order, no addresses — content only. Human-readable names
// (model, layer, platform) are deliberately excluded; they never reach
// the cost model.
type TableKey struct {
	A, B uint64
}

// tkHash accumulates one token into both lanes (see Fingerprint for the
// lane constants).
func tkHash(a, b, x uint64) (uint64, uint64) {
	return (a ^ x) * fnvPrime64, (b ^ x) * altPrime64
}

// TableIdentity hashes the analyzer-visible content of a (group,
// platform) pair. The token stream is prefix-free — each variable-
// length section is preceded by its length — so structurally different
// inputs never serialize to the same stream.
func TableIdentity(g workload.Group, p platform.Platform) TableKey {
	a, b := uint64(fnvOffset64), uint64(altOffset64)
	a, b = tkHash(a, b, uint64(len(g.Jobs)))
	for _, j := range g.Jobs {
		l := j.Layer
		for _, x := range [...]uint64{
			uint64(j.Batch), uint64(l.Kind),
			uint64(l.K), uint64(l.C), uint64(l.Y), uint64(l.X),
			uint64(l.R), uint64(l.S), uint64(l.Stride),
		} {
			a, b = tkHash(a, b, x)
		}
	}
	a, b = tkHash(a, b, uint64(len(p.SubAccels)))
	for _, s := range p.SubAccels {
		c := s.Config
		flex := uint64(0)
		if c.Flexible {
			flex = 1
		}
		for _, x := range [...]uint64{
			uint64(c.H), uint64(c.W),
			uint64(c.SGBytes), uint64(c.SLBytes),
			uint64(c.Dataflow), flex,
		} {
			a, b = tkHash(a, b, x)
		}
	}
	a, b = tkHash(a, b, math.Float64bits(p.SystemBWGBs))
	return TableKey{A: a, B: b}
}
