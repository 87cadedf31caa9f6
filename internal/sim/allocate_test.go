package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkState(reqs []float64) []live {
	st := make([]live, len(reqs))
	for i, r := range reqs {
		st[i] = live{job: i, req: r, active: r >= 0}
		if r < 0 { // sentinel: inactive core
			st[i] = live{job: -1}
		}
	}
	return st
}

func TestAllocateUnderSubscribed(t *testing.T) {
	st := mkState([]float64{1, 2, 3})
	alloc := make([]float64, 3)
	allocate(st, alloc, 10)
	for i, want := range []float64{1, 2, 3} {
		if alloc[i] != want {
			t.Errorf("alloc[%d] = %g, want full req %g", i, alloc[i], want)
		}
	}
}

func TestAllocateProportional(t *testing.T) {
	st := mkState([]float64{2, 6})
	alloc := make([]float64, 2)
	allocate(st, alloc, 4)
	if math.Abs(alloc[0]-1) > 1e-12 || math.Abs(alloc[1]-3) > 1e-12 {
		t.Errorf("proportional alloc = %v, want [1 3]", alloc)
	}
}

func TestAllocateSkipsIdleCores(t *testing.T) {
	st := mkState([]float64{5, -1, 5})
	alloc := make([]float64, 3)
	allocate(st, alloc, 4)
	if alloc[1] != 0 {
		t.Errorf("idle core received %g", alloc[1])
	}
	if math.Abs(alloc[0]+alloc[2]-4) > 1e-12 {
		t.Errorf("active allocs %g+%g != sys 4", alloc[0], alloc[2])
	}
}

// Property: the allocator never exceeds the system bandwidth, never
// grants a job more than its requirement, and is work-conserving when
// over-subscribed.
func TestQuickAllocateInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		reqs := make([]float64, n)
		var sum float64
		for i := range reqs {
			reqs[i] = rng.Float64() * 100
			sum += reqs[i]
		}
		sys := rng.Float64() * 150
		st := mkState(reqs)
		alloc := make([]float64, n)
		allocate(st, alloc, sys)
		var total float64
		for i, a := range alloc {
			if a < -1e-12 || a > reqs[i]+1e-9 {
				return false // over-allocation to one job
			}
			total += a
		}
		if total > sys*(1+1e-9) && total > sum*(1+1e-9) {
			return false
		}
		if sum > sys && math.Abs(total-sys) > 1e-6*sys {
			return false // saturated: must use all bandwidth
		}
		if sum <= sys && math.Abs(total-sum) > 1e-6*(1+sum) {
			return false // unsaturated: everyone gets their ask
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
