package sim

import (
	"math"
	"math/rand"
	"testing"

	"magma/internal/analyzer"
	"magma/internal/platform"
)

// Metamorphic laws of Algorithm 1 that hold for any correct simulator,
// independent of the v1 oracle: each transforms the input in a way
// whose effect on the result is known in closed form.

// TestSimulatorTimeScaling: multiplying every no-stall latency by k
// multiplies every job's outstanding demand by k while leaving the
// bandwidth requirements alone, so the whole schedule stretches by k.
func TestSimulatorTimeScaling(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		nJobs := 4 + r.Intn(80)
		nAccels := 1 + r.Intn(16)
		tab := randomTable(r, nJobs, nAccels)
		m := randomMapping(nJobs, nAccels, r)
		k := int64(2 + r.Intn(9))
		scaled := &analyzer.Table{Entries: make([][]analyzer.Entry, nJobs), Platform: tab.Platform}
		for j, row := range tab.Entries {
			scaled.Entries[j] = append([]analyzer.Entry(nil), row...)
			for a := range row {
				scaled.Entries[j][a].Cycles *= k
			}
		}
		base, err := Run(tab, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(scaled, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k) * base.TotalCycles
		if math.Abs(got.TotalCycles-want) > kernelTol(want) {
			t.Fatalf("trial %d: cycles ×%d gives makespan %g, want %d × %g = %g",
				trial, k, got.TotalCycles, k, base.TotalCycles, want)
		}
	}
}

// TestSimulatorCoreRelabeling: permuting the cores — the table's
// columns, the platform's sub-accelerators and the mapping's queues
// together — describes the same schedule, so makespan and energy do
// not move.
func TestSimulatorCoreRelabeling(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		nJobs := 4 + r.Intn(80)
		nAccels := 2 + r.Intn(15)
		tab := randomTable(r, nJobs, nAccels)
		m := randomMapping(nJobs, nAccels, r)
		perm := r.Perm(nAccels) // core a becomes core perm[a]
		pf := tab.Platform
		pf.SubAccels = make([]platform.SubAccel, nAccels)
		pm := Mapping{Queues: make([][]int, nAccels)}
		for a, p := range perm {
			pf.SubAccels[p] = tab.Platform.SubAccels[a]
			pm.Queues[p] = m.Queues[a]
		}
		pt := &analyzer.Table{Entries: make([][]analyzer.Entry, nJobs), Platform: pf}
		for j, row := range tab.Entries {
			pt.Entries[j] = make([]analyzer.Entry, nAccels)
			for a, p := range perm {
				pt.Entries[j][p] = row[a]
			}
		}
		base, err := Run(tab, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(pt, pm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.TotalCycles-base.TotalCycles) > kernelTol(base.TotalCycles) {
			t.Fatalf("trial %d perm %v: makespan %g, want %g", trial, perm, got.TotalCycles, base.TotalCycles)
		}
		if math.Abs(got.Energy-base.Energy) > kernelTol(base.Energy) {
			t.Fatalf("trial %d perm %v: energy %g, want %g", trial, perm, got.Energy, base.Energy)
		}
	}
}

// TestSimulatorSingleCoreClosedForm: on one core every job runs alone,
// at no-stall speed when its requirement fits the system bandwidth and
// stretched by req/sysBW when it does not, so the makespan is
// Σ_j max(cycles_j, cycles_j·req_j/sysBW).
func TestSimulatorSingleCoreClosedForm(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		nJobs := 1 + r.Intn(100)
		tab := randomTable(r, nJobs, 1)
		// A low system bandwidth, so that part of the BW-hungry jobs
		// (req up to 8 bytes/cycle) saturate it and stretch.
		tab.Platform.SystemBWGBs = 0.5 + r.Float64()
		sysBW := tab.Platform.SystemBWBytesPerCycle()
		m := Mapping{Queues: [][]int{r.Perm(nJobs)}}
		var want float64
		for _, j := range m.Queues[0] {
			e := tab.At(j, 0)
			c := float64(e.Cycles)
			want += math.Max(c, c*e.BWPerCycle/sysBW)
		}
		got, err := Run(tab, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.TotalCycles-want) > kernelTol(want) {
			t.Fatalf("trial %d (%d jobs, sysBW %g): makespan %g, closed form %g",
				trial, nJobs, sysBW, got.TotalCycles, want)
		}
	}
}
