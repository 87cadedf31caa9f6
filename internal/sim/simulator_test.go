package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"magma/internal/models"
	"magma/internal/platform"
)

// randomMapping spreads a random permutation of jobs over the accels.
func randomMapping(nJobs, nAccels int, r *rand.Rand) Mapping {
	m := Mapping{Queues: make([][]int, nAccels)}
	for _, j := range r.Perm(nJobs) {
		a := r.Intn(nAccels)
		m.Queues[a] = append(m.Queues[a], j)
	}
	return m
}

// TestSimulatorMatchesRun drives one reused Simulator over a stream of
// random mappings and checks every Result is identical to a fresh
// package-level Run — scratch reuse must never leak state between runs.
func TestSimulatorMatchesRun(t *testing.T) {
	tab := buildTable(t, models.Mix, 30, platform.S2().WithBW(4))
	r := rand.New(rand.NewSource(9))
	for _, opt := range []Options{{}, {CaptureFrames: true}} {
		s := NewSimulator(opt)
		for i := 0; i < 20; i++ {
			m := randomMapping(30, 4, r)
			got, err := s.Run(tab, m)
			if err != nil {
				t.Fatalf("opt %+v run %d: %v", opt, i, err)
			}
			want, err := Run(tab, m, opt)
			if err != nil {
				t.Fatalf("opt %+v run %d (fresh): %v", opt, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opt %+v run %d: reused simulator diverged\n got %+v\nwant %+v", opt, i, got, want)
			}
		}
	}
}

// TestSimulatorRecoversAfterError checks an invalid mapping doesn't
// poison the scratch for subsequent valid runs.
func TestSimulatorRecoversAfterError(t *testing.T) {
	tab := buildTable(t, models.Vision, 12, platform.S1())
	s := NewSimulator(Options{})
	if _, err := s.Run(tab, Mapping{Queues: [][]int{{0}}}); err == nil {
		t.Fatal("invalid mapping accepted")
	}
	m := roundRobin(12, 4)
	got, err := s.Run(tab, m)
	if err != nil {
		t.Fatalf("valid run after error: %v", err)
	}
	want, err := Run(tab, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result after error differs from fresh run")
	}
}

// TestSimulatorZeroAlloc asserts the steady-state hot path allocates
// nothing: after a warm-up run the scratch buffers are fully grown.
func TestSimulatorZeroAlloc(t *testing.T) {
	tab := buildTable(t, models.Mix, 40, platform.S2().WithBW(4))
	m := roundRobin(40, 4)
	s := NewSimulator(Options{})
	if _, err := s.Run(tab, m); err != nil { // warm up scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Run(tab, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Run allocates %.1f times, want 0", allocs)
	}
}
