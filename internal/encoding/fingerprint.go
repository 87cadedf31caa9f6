package encoding

import "magma/internal/sim"

// Fingerprint is a 128-bit schedule fingerprint: two independent 64-bit
// FNV-1a-style lanes over the decoded per-core queues. Genomes that
// decode to the same mapping always produce the same fingerprint;
// distinct mappings collide with probability ~2^-128, which at the
// paper's 10K-sample budgets is negligible. Unlike Key it allocates
// nothing and is directly usable as a map key.
//
// Layout (v2): each core's queue is hashed independently into a
// per-core lane pair (hashQueue), and the per-core hashes are
// chain-combined in core order (CombineCoreHashes). The schedule
// fingerprint is therefore a function of the per-core hashes alone:
// FingerprintInto folds them on the fly, FingerprintCoresInto also
// records them, and both return the same value.
//
// Fingerprints are identities only comparable within one problem (same
// group and platform): the hash covers the queue contents, not the
// dimensions. No durable artifact carries them, so the layout may
// change freely; TestFingerprintStable pins it so it moves only on
// purpose.
type Fingerprint struct {
	A, B uint64
}

// The two lanes use distinct odd multipliers and offsets so a collision
// in one lane is uncorrelated with the other: lane A is standard 64-bit
// FNV-1a, lane B mixes with xxhash's prime2 from a golden-ratio offset.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x00000100000001b3
	altOffset64 = 0x9e3779b97f4a7c15
	altPrime64  = 0xc2b2ae3d27d4eb4f
)

// CoreHashes holds one schedule's per-core lane hashes (index =
// sub-accelerator ID, length = nAccels), as FingerprintCoresInto
// records them.
type CoreHashes []Fingerprint

// hashQueue hashes one core's ordered queue into its lane pair. The
// token stream is prefix-free — the queue length, then its job IDs — so
// distinct queues never serialize to the same stream. Allocation-free.
func hashQueue(q []int) Fingerprint {
	a, b := uint64(fnvOffset64), uint64(altOffset64)
	x := uint64(len(q))
	a = (a ^ x) * fnvPrime64
	b = (b ^ x) * altPrime64
	for _, j := range q {
		x = uint64(j) + 1 // +1 keeps job 0 distinct from padding-like zeros
		a = (a ^ x) * fnvPrime64
		b = (b ^ x) * altPrime64
	}
	return Fingerprint{A: a, B: b}
}

// CombineCoreHashes chain-combines per-core lane hashes, in core order,
// into the schedule fingerprint. The chain is order-sensitive (core 0
// then core 1 differs from the swap), matching the decoded mapping's
// positional queue semantics.
func CombineCoreHashes(ch CoreHashes) Fingerprint {
	a, b := uint64(fnvOffset64), uint64(altOffset64)
	for _, h := range ch {
		a = (a ^ h.A) * fnvPrime64
		b = (b ^ h.B) * altPrime64
	}
	return Fingerprint{A: a, B: b}
}

// FingerprintMapping hashes per-core queues into a Fingerprint.
// Allocation-free.
func FingerprintMapping(m sim.Mapping) Fingerprint {
	a, b := uint64(fnvOffset64), uint64(altOffset64)
	for _, q := range m.Queues {
		h := hashQueue(q)
		a = (a ^ h.A) * fnvPrime64
		b = (b ^ h.B) * altPrime64
	}
	return Fingerprint{A: a, B: b}
}

// FingerprintInto decodes the genome into the scratch mapping (exactly
// like DecodeInto) and returns the schedule fingerprint. Steady-state it
// performs zero heap allocations; the decoded mapping is left in scratch
// so callers can reuse it.
func (g Genome) FingerprintInto(nAccels int, scratch *sim.Mapping) Fingerprint {
	DecodeInto(g, nAccels, scratch)
	return FingerprintMapping(*scratch)
}

// FingerprintCoresInto is FingerprintInto recording each core's lane
// hash into ch (which must have length nAccels); it returns the same
// fingerprint. Steady-state allocation-free.
func (g Genome) FingerprintCoresInto(nAccels int, scratch *sim.Mapping, ch CoreHashes) Fingerprint {
	DecodeInto(g, nAccels, scratch)
	for a, q := range scratch.Queues {
		ch[a] = hashQueue(q)
	}
	return CombineCoreHashes(ch)
}

// Fingerprint is the allocating convenience form of FingerprintInto.
func (g Genome) Fingerprint(nAccels int) Fingerprint {
	return FingerprintMapping(Decode(g, nAccels))
}
