package encoding

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameByDecode is SameSchedule's reference: two genomes share a
// schedule exactly when they decode to equal mappings.
func sameByDecode(a, b Genome, nAccels int) bool {
	return reflect.DeepEqual(Decode(a, nAccels), Decode(b, nAccels))
}

// editGenome returns a copy of g with up to four random edits, each
// one of: a new accel gene, a fresh priority, a priority tied with
// another job's, or a priority nudged by one ulp.
func editGenome(r *rand.Rand, g Genome, nAccels int, draw func(*rand.Rand, int) float64) Genome {
	e := g.Clone()
	n := len(g.Accel)
	for edits := r.Intn(5); edits > 0; edits-- {
		j := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			e.Accel[j] = r.Intn(nAccels)
		case 1:
			e.Prio[j] = draw(r, n)
		case 2:
			e.Prio[j] = e.Prio[r.Intn(n)]
		case 3:
			if p := math.Nextafter(e.Prio[j], 1); p < 1 {
				e.Prio[j] = p
			}
		}
	}
	return e
}

// TestSameScheduleMatchesDecode checks SameSchedule against comparing
// the decoded mappings, on pairs made by editing a genome of every
// priority shape: fresh and tied priorities, one-ulp nudges and
// changed accel genes. Both answers must occur often, and the relation
// must be symmetric.
func TestSameScheduleMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var same, differ int
	for _, shape := range prioShapes {
		for _, nJobs := range []int{1, 2, 16, 100} {
			for iter := 0; iter < 300; iter++ {
				nAccels := 1 + r.Intn(6)
				a := shapedGenome(r, nJobs, nAccels, shape.draw)
				b := editGenome(r, a, nAccels, shape.draw)
				want := sameByDecode(a, b, nAccels)
				if got := SameSchedule(a, b); got != want {
					t.Fatalf("%s J=%d A=%d: SameSchedule = %v, decoded mappings equal = %v\n a=%v\n b=%v",
						shape.name, nJobs, nAccels, got, want, a, b)
				}
				if SameSchedule(b, a) != want {
					t.Fatalf("%s J=%d A=%d: SameSchedule is not symmetric", shape.name, nJobs, nAccels)
				}
				if want {
					same++
				} else {
					differ++
				}
			}
		}
	}
	t.Logf("%d same, %d different", same, differ)
	if same < 1000 || differ < 1000 {
		t.Errorf("%d same and %d different pairs: both answers need exercising", same, differ)
	}
}

func TestSameScheduleRejectsMismatchedShapes(t *testing.T) {
	g := Genome{Accel: []int{0, 1}, Prio: []float64{0.1, 0.2}}
	for _, h := range []Genome{
		{Accel: []int{0}, Prio: []float64{0.1}},
		{Accel: []int{0, 1}, Prio: []float64{0.1}},
		{Accel: []int{0, 1, 1}, Prio: []float64{0.1, 0.2}},
	} {
		if SameSchedule(g, h) || SameSchedule(h, g) {
			t.Errorf("%v and %v share a schedule", g, h)
		}
	}
	nan := Genome{Accel: []int{0, 1}, Prio: []float64{0.1, math.NaN()}}
	if SameSchedule(nan, nan) {
		t.Error("a NaN priority matched")
	}
}

// FuzzSameSchedule builds genome a from data (as FuzzDecode does) and b
// by applying edits to a copy: each byte pair (j, v) names job j modulo
// the group size and, when j ≥ 0x80, sets its accel gene to v modulo
// the core count, otherwise its priority to v/240, so ties with a's
// levels are common and v ≥ 0xF0 gives an invalid priority.
// SameSchedule must never panic, must be symmetric, and must agree with
// the decoded mappings whenever both genomes pass Validate. Explore
// beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzSameSchedule -fuzztime=10s ./internal/encoding/
func FuzzSameSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, edits []byte) {
		a, nAccels := fuzzGenome(data)
		b := a.Clone()
		for n := len(a.Accel); n > 0 && len(edits) >= 2; edits = edits[2:] {
			j, v := int(edits[0]), edits[1]
			if j >= 0x80 {
				b.Accel[j%n] = int(v) % nAccels
			} else {
				b.Prio[j%n] = float64(v) / 240
			}
		}
		got := SameSchedule(a, b)
		if SameSchedule(b, a) != got {
			t.Fatalf("SameSchedule is not symmetric on %v, %v", a, b)
		}
		n := len(a.Accel)
		if a.Validate(n, nAccels) != nil || b.Validate(n, nAccels) != nil {
			return
		}
		if want := sameByDecode(a, b, nAccels); got != want {
			t.Fatalf("SameSchedule = %v, decoded mappings equal = %v\n a=%v\n b=%v", got, want, a, b)
		}
	})
}
