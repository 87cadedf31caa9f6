package encoding

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRandomValidates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := Random(37, 5, r)
		if err := g.Validate(37, 5); err != nil {
			t.Fatalf("random genome invalid: %v", err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	g := Genome{Accel: []int{0, 1}, Prio: []float64{0.1, 0.2}}
	if err := g.Validate(2, 2); err != nil {
		t.Fatalf("valid genome rejected: %v", err)
	}
	if err := g.Validate(3, 2); err == nil {
		t.Error("wrong length accepted")
	}
	bad := Genome{Accel: []int{0, 5}, Prio: []float64{0.1, 0.2}}
	if err := bad.Validate(2, 2); err == nil {
		t.Error("out-of-range accel accepted")
	}
	badP := Genome{Accel: []int{0, 1}, Prio: []float64{0.1, 1.5}}
	if err := badP.Validate(2, 2); err == nil {
		t.Error("out-of-range priority accepted")
	}
	nan := Genome{Accel: []int{0, 1}, Prio: []float64{0.1, math.NaN()}}
	if err := nan.Validate(2, 2); err == nil {
		t.Error("NaN priority accepted")
	}
}

// TestValidPrio pins Validate's rule for the priority section: nJobs
// genes, each in [0,1), with -0 allowed and NaN not. (sim.Bounds.
// GenomeRoofline applies the same rule; FuzzGenomeBound holds the two to
// one verdict.)
func TestValidPrio(t *testing.T) {
	for _, c := range []struct {
		p     float64
		valid bool
	}{
		{0, true}, {math.Copysign(0, -1), true}, {0.5, true}, {math.Nextafter(1, 0), true},
		{1, false}, {1.5, false}, {-1e-300, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		g := Genome{Accel: []int{0, 1}, Prio: []float64{0.25, c.p}}
		if got := g.Validate(2, 2) == nil; got != c.valid {
			t.Errorf("Validate with priority %g accepts = %v, want %v", c.p, got, c.valid)
		}
	}
	if (Genome{Accel: []int{0, 1}, Prio: []float64{0.5}}).Validate(2, 2) == nil {
		t.Error("Validate accepted a short priority section")
	}
}

func TestDecodePaperExample(t *testing.T) {
	// Fig. 5(a): accel = [1,2,2,1,2], prio = [0.1,0.8,0.4,0.7,0.3]
	// with 1-indexed accels in the paper -> 0-indexed here.
	g := Genome{
		Accel: []int{0, 1, 1, 0, 1},
		Prio:  []float64{0.1, 0.8, 0.4, 0.7, 0.3},
	}
	m := Decode(g, 2)
	// Accel 1: J1(0.1) then J4(0.7); accel 2: J5(0.3), J3(0.4), J2(0.8).
	want0 := []int{0, 3}
	want1 := []int{4, 2, 1}
	if !reflect.DeepEqual(m.Queues[0], want0) {
		t.Errorf("queue0 = %v, want %v", m.Queues[0], want0)
	}
	if !reflect.DeepEqual(m.Queues[1], want1) {
		t.Errorf("queue1 = %v, want %v", m.Queues[1], want1)
	}
}

func TestDecodeTieBreaksByJobID(t *testing.T) {
	g := Genome{Accel: []int{0, 0, 0}, Prio: []float64{0.5, 0.5, 0.5}}
	m := Decode(g, 1)
	if !reflect.DeepEqual(m.Queues[0], []int{0, 1, 2}) {
		t.Errorf("tie-break order = %v", m.Queues[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := Random(10, 3, r)
	c := g.Clone()
	c.Accel[0] = (g.Accel[0] + 1) % 3
	c.Prio[0] = 0.999
	if g.Accel[0] == c.Accel[0] || g.Prio[0] == c.Prio[0] {
		t.Error("clone shares storage with original")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		nAccels := 1 + r.Intn(8)
		g := Random(20, nAccels, r)
		v := g.ToVector(nAccels)
		back, err := FromVector(v, nAccels)
		if err != nil {
			t.Fatalf("FromVector: %v", err)
		}
		if !reflect.DeepEqual(back.Accel, g.Accel) {
			t.Fatalf("accel round trip: %v != %v", back.Accel, g.Accel)
		}
		for j := range g.Prio {
			if math.Abs(back.Prio[j]-g.Prio[j]) > 1e-12 {
				t.Fatalf("prio round trip differs at %d", j)
			}
		}
	}
}

func TestFromVectorClamps(t *testing.T) {
	v := []float64{-0.5, 2.0, math.NaN(), 1.0}
	g, err := FromVector(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(2, 3); err != nil {
		t.Fatalf("clamped genome invalid: %v", err)
	}
	if g.Accel[0] != 0 || g.Accel[1] != 2 {
		t.Errorf("clamped accels = %v", g.Accel)
	}
	if _, err := FromVector([]float64{0.1}, 2); err == nil {
		t.Error("odd-length vector accepted")
	}
}

func TestKeyIdentifiesSchedules(t *testing.T) {
	g1 := Genome{Accel: []int{0, 1, 0}, Prio: []float64{0.2, 0.5, 0.7}}
	// Same schedule, different priority values (same rank order).
	g2 := Genome{Accel: []int{0, 1, 0}, Prio: []float64{0.01, 0.9, 0.6}}
	if g1.Key(2) != g2.Key(2) {
		t.Error("rank-equivalent genomes got different keys")
	}
	g3 := Genome{Accel: []int{0, 1, 0}, Prio: []float64{0.9, 0.5, 0.2}}
	if g1.Key(2) == g3.Key(2) {
		t.Error("different schedules share a key")
	}
	g4 := Genome{Accel: []int{1, 1, 0}, Prio: []float64{0.2, 0.5, 0.7}}
	if g1.Key(2) == g4.Key(2) {
		t.Error("different placements share a key")
	}
}

// Property: decoding partitions the job set exactly, for any random genome.
func TestQuickDecodePartition(t *testing.T) {
	f := func(seed int64, nJobsRaw, nAccelsRaw uint8) bool {
		nJobs := 1 + int(nJobsRaw)%120
		nAccels := 1 + int(nAccelsRaw)%16
		r := rand.New(rand.NewSource(seed))
		g := Random(nJobs, nAccels, r)
		m := Decode(g, nAccels)
		if err := m.Validate(nJobs, nAccels); err != nil {
			return false
		}
		// Each job appears on the accel its gene selects.
		for a, q := range m.Queues {
			for _, j := range q {
				if g.Accel[j] != a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: within any queue, priorities are non-decreasing.
func TestQuickDecodeOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(60, 4, r)
		m := Decode(g, 4)
		for _, q := range m.Queues {
			for i := 1; i < len(q); i++ {
				if g.Prio[q[i-1]] > g.Prio[q[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: FromVector(ToVector(g)) preserves the decoded schedule.
func TestQuickVectorPreservesSchedule(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nAccels := 1 + r.Intn(8)
		g := Random(40, nAccels, r)
		v := g.ToVector(nAccels)
		back, err := FromVector(v, nAccels)
		if err != nil {
			return false
		}
		return g.Fingerprint(nAccels) == back.Fingerprint(nAccels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
