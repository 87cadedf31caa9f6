package encoding

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"magma/internal/rng"
	"magma/internal/sim"
)

// perturb returns a copy of g with a randomized edit: a priority
// rescale that preserves the decoded schedule, or a random gene tweak
// that usually (not always) changes it. The mix produces fingerprint
// pairs on both sides of the equality with high probability.
func perturb(g Genome, nAccels int, r *rand.Rand) Genome {
	out := g.Clone()
	switch r.Intn(3) {
	case 0:
		// Monotone rescale of every priority: same rank order per core,
		// so the decoded mapping is identical.
		for i, p := range out.Prio {
			out.Prio[i] = p * 0.5
		}
	case 1:
		j := r.Intn(len(out.Accel))
		out.Accel[j] = r.Intn(nAccels)
	default:
		j := r.Intn(len(out.Prio))
		out.Prio[j] = r.Float64()
	}
	return out
}

// Property (the tentpole's correctness contract): two genomes share a
// fingerprint exactly when they decode to the same mapping, across
// group sizes and accelerator counts.
func TestQuickFingerprintMatchesDecode(t *testing.T) {
	sawEqual, sawDiff := false, false
	f := func(seed int64, nJobsRaw, nAccelsRaw uint8) bool {
		nJobs := 1 + int(nJobsRaw)%120
		nAccels := 1 + int(nAccelsRaw)%16
		r := rand.New(rand.NewSource(seed))
		g1 := Random(nJobs, nAccels, r)
		g2 := perturb(g1, nAccels, r)
		sameMapping := reflect.DeepEqual(Decode(g1, nAccels), Decode(g2, nAccels))
		sameFP := g1.Fingerprint(nAccels) == g2.Fingerprint(nAccels)
		if sameMapping {
			sawEqual = true
		} else {
			sawDiff = true
		}
		return sameMapping == sameFP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if !sawEqual || !sawDiff {
		t.Fatalf("property vacuous: sawEqual=%v sawDiff=%v", sawEqual, sawDiff)
	}
}

// Property: Fingerprint and Key agree on schedule identity — they are
// two encodings of the same equivalence relation.
func TestQuickFingerprintMatchesKey(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nAccels := 1 + r.Intn(8)
		g1 := Random(30, nAccels, r)
		g2 := perturb(g1, nAccels, r)
		return (g1.Key(nAccels) == g2.Key(nAccels)) ==
			(g1.Fingerprint(nAccels) == g2.Fingerprint(nAccels))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintIntoMatchesAllocatingForm(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var scratch sim.Mapping
	for i := 0; i < 50; i++ {
		nAccels := 1 + r.Intn(8)
		g := Random(40, nAccels, r)
		if got, want := g.FingerprintInto(nAccels, &scratch), g.Fingerprint(nAccels); got != want {
			t.Fatalf("iter %d: FingerprintInto %v != Fingerprint %v", i, got, want)
		}
		// The scratch must hold exactly the decoded mapping. Compare
		// queue by queue: reused scratch keeps empty queues as non-nil
		// zero-length slices where Decode leaves them nil.
		want := Decode(g, nAccels)
		if len(scratch.Queues) != len(want.Queues) {
			t.Fatalf("iter %d: %d queues, want %d", i, len(scratch.Queues), len(want.Queues))
		}
		for a := range want.Queues {
			if len(scratch.Queues[a]) != len(want.Queues[a]) ||
				(len(want.Queues[a]) > 0 && !reflect.DeepEqual(scratch.Queues[a], want.Queues[a])) {
				t.Fatalf("iter %d: queue %d = %v, want %v", i, a, scratch.Queues[a], want.Queues[a])
			}
		}
	}
}

// Property: FingerprintInto folds exactly the per-core lane hashes
// FingerprintCoresInto records, so the two forms agree on every genome
// (and CombineCoreHashes of the recorded hashes reproduces both).
func TestQuickFingerprintIntoMatchesCores(t *testing.T) {
	var scratch, coresScratch sim.Mapping
	f := func(seed int64, nJobsRaw, nAccelsRaw uint8) bool {
		nJobs := 1 + int(nJobsRaw)%120
		nAccels := 1 + int(nAccelsRaw)%16
		g := Random(nJobs, nAccels, rand.New(rand.NewSource(seed)))
		ch := make(CoreHashes, nAccels)
		got := g.FingerprintInto(nAccels, &scratch)
		want := g.FingerprintCoresInto(nAccels, &coresScratch, ch)
		return got == want && CombineCoreHashes(ch) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintStable pins one golden schedule fingerprint. Solver
// snapshots persist these hashes under FingerprintLayout, so the value
// must not move without a deliberate layout bump (update the golden and
// FingerprintLayout together). The genome occupies all four cores and
// includes a priority tie (jobs 2 and 7 on core 1).
func TestFingerprintStable(t *testing.T) {
	g := Genome{
		Accel: []int{0, 2, 1, 0, 2, 2, 3, 1},
		Prio:  []float64{0.5, 0.25, 0.75, 0.125, 0.875, 0.625, 0.375, 0.75},
	}
	var scratch sim.Mapping
	got := g.FingerprintInto(4, &scratch)
	want := Fingerprint{A: 0xb052428cc7a81423, B: 0x8e7e9cb8c941e78b}
	if got != want {
		t.Fatalf("golden fingerprint moved: got %#x/%#x, want %#x/%#x — only acceptable with a FingerprintLayout bump",
			got.A, got.B, want.A, want.B)
	}
	if FingerprintLayout != 2 {
		t.Fatalf("FingerprintLayout = %d: re-derive the golden fingerprint for the new layout", FingerprintLayout)
	}
}

// The fingerprint pass runs once per sampled genome; it must not
// allocate once the decode scratch is warm.
func TestFingerprintIntoZeroAlloc(t *testing.T) {
	g := Random(100, 8, rand.New(rand.NewSource(10)))
	var scratch sim.Mapping
	g.FingerprintInto(8, &scratch) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		g.FingerprintInto(8, &scratch)
	})
	if allocs > 0 {
		t.Errorf("steady-state FingerprintInto allocates %.1f times, want 0", allocs)
	}
}

// Regression for the old Key scheme: job IDs were truncated to 16 bits
// and the 0xff,0xff queue separator was ambiguous with job ID 65535, so
// the two schedules below — job 65535 alone on core 0 vs job 65535
// leading core 1 — serialized identically. The varint length-prefix
// encoding keeps them (and the fingerprints) distinct.
func TestKeySafeBeyond16BitJobIDs(t *testing.T) {
	const nJobs = 65536
	mk := func(core0 bool) Genome {
		g := Genome{Accel: make([]int, nJobs), Prio: make([]float64, nJobs)}
		for j := range g.Accel {
			g.Accel[j] = 1
			g.Prio[j] = float64(j+1) / float64(nJobs+2)
		}
		g.Prio[nJobs-1] = 0 // job 65535 runs first wherever it is placed
		if core0 {
			g.Accel[nJobs-1] = 0
		}
		return g
	}
	g1, g2 := mk(true), mk(false)
	if g1.Key(2) == g2.Key(2) {
		t.Error("schedules differing only in job 65535's core share a key")
	}
	if g1.Fingerprint(2) == g2.Fingerprint(2) {
		t.Error("schedules differing only in job 65535's core share a fingerprint")
	}
	// Sanity: a genome with IDs beyond 16 bits is self-consistent.
	if g1.Key(2) != mk(true).Key(2) {
		t.Error("equal schedules got different keys")
	}
}

// BenchmarkFingerprint measures the schedule-fingerprint pass the cache
// runs per genome: a decode into scratch and a hash of the per-core
// queues, at 100 jobs on 8 cores.
func BenchmarkFingerprint(b *testing.B) {
	g := Random(100, 8, rng.New(3))
	var m sim.Mapping
	g.FingerprintInto(8, &m) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FingerprintInto(8, &m)
	}
}
