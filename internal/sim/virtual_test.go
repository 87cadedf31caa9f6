package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"magma/internal/analyzer"
	"magma/internal/models"
	"magma/internal/platform"
)

// bandwidthTable is randomTable with every entry bandwidth-bound, so
// the virtual-time makespan is defined. With coarse set, cycle counts
// come from a few round values, so prefix sums on different cores often
// coincide and Run retires jobs whose keys differ only by rounding —
// ends inside its 1e-6 virtual retirement window.
func bandwidthTable(r *rand.Rand, nJobs, nAccels int, coarse bool) *analyzer.Table {
	t := randomTable(r, nJobs, nAccels)
	for j := range t.Entries {
		for a := range t.Entries[j] {
			e := &t.Entries[j][a]
			if coarse {
				e.Cycles = 1000 * (1 + r.Int63n(4))
			}
			e.BWPerCycle = 0.01 + r.Float64()*8
			if r.Intn(8) == 0 {
				e.BWPerCycle = 2e-12 // just above the bandwidth-free threshold
			}
		}
	}
	return t
}

// checkVirtual asserts Virtual's bracket holds Run's Result, and that
// the raw virtual makespan sits within 1e-12 relative of Run's, far
// inside the slack. It returns that relative gap.
func checkVirtual(t *testing.T, label string, b *Bounds, s *VirtualScratch, tab *analyzer.Table, m Mapping) float64 {
	t.Helper()
	run, err := Run(tab, m, Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	best, worst, ok := b.Virtual(s, &m)
	if !ok {
		t.Fatalf("%s: Virtual unavailable on a bandwidth-only table", label)
	}
	if !(best.TotalCycles <= run.TotalCycles && run.TotalCycles <= worst.TotalCycles) {
		t.Fatalf("%s: makespan %v outside the bracket [%v, %v]", label, run.TotalCycles, best.TotalCycles, worst.TotalCycles)
	}
	if !(best.Energy <= run.Energy && run.Energy <= worst.Energy) {
		t.Fatalf("%s: energy %v outside the bracket [%v, %v]", label, run.Energy, best.Energy, worst.Energy)
	}
	if !(worst.ThroughputGFLOPs <= run.ThroughputGFLOPs && run.ThroughputGFLOPs <= best.ThroughputGFLOPs) {
		t.Fatalf("%s: throughput %v outside the bracket [%v, %v]", label, run.ThroughputGFLOPs, worst.ThroughputGFLOPs, best.ThroughputGFLOPs)
	}
	span, _ := b.virtual(s, &m, b.roofline(&m), math.Inf(1))
	gap := math.Abs(span-run.TotalCycles) / run.TotalCycles
	if gap > 1e-12 {
		t.Fatalf("%s: virtual makespan %v vs Run %v: relative gap %g", label, span, run.TotalCycles, gap)
	}
	return gap
}

// TestVirtualMakespanMatchesRun is the law the runner's second pruning
// stage rests on: over random bandwidth-only tables (1–124 jobs, 1–16
// cores, at system bandwidths from starved to ample, with fine and with
// coarse cycle counts) and random mappings, Virtual's bracket holds
// Run's makespan, energy and throughput, and the virtual makespan
// itself agrees with Run to rounding.
func TestVirtualMakespanMatchesRun(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	s := &VirtualScratch{}
	var worst float64
	for trial := 0; trial < 600; trial++ {
		nAccels := 1 + r.Intn(16)
		nJobs := 1 + r.Intn(124)
		coarse := trial%2 == 1
		tab := bandwidthTable(r, nJobs, nAccels, coarse)
		b := NewBounds(tab)
		for k := 0; k < 4; k++ {
			label := fmt.Sprintf("trial %d (%d jobs, %d cores, coarse=%v) mapping %d", trial, nJobs, nAccels, coarse, k)
			worst = max(worst, checkVirtual(t, label, b, s, tab, randomMapping(nJobs, nAccels, r)))
		}
	}
	t.Logf("worst relative gap to Run: %g", worst)
}

// TestVirtualMakespanRealTables repeats the law on shipped platforms
// and generated groups, after checking that no shipped table has a
// bandwidth-free entry: every setting S1–S6 × every task, at the lowest
// and highest bandwidth the experiments sweep.
func TestVirtualMakespanRealTables(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := &VirtualScratch{}
	for _, id := range platform.Settings() {
		for _, task := range models.Tasks() {
			for _, bw := range []float64{1, 256} {
				p, err := platform.BySetting(id)
				if err != nil {
					t.Fatal(err)
				}
				p = p.WithBW(bw)
				tab := buildTable(t, task, 48, p)
				b := NewBounds(tab)
				label := fmt.Sprintf("%s %s at %g GB/s", id, task, bw)
				if !b.HasVirtual() {
					t.Fatalf("%s: table has a bandwidth-free entry", label)
				}
				for k := 0; k < 3; k++ {
					checkVirtual(t, fmt.Sprintf("%s, mapping %d", label, k), b, s, tab, randomMapping(48, p.NumAccels(), r))
				}
			}
		}
	}
}

// TestVirtualUnavailableWithBandwidthFreeEntry pins the domain: one
// entry at or below Run's 1e-12 bandwidth-free threshold turns the
// virtual-time makespan off, with zero answers.
func TestVirtualUnavailableWithBandwidthFreeEntry(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, req := range []float64{0, 1e-13, 1e-12} {
		tab := bandwidthTable(r, 12, 4, false)
		tab.Entries[r.Intn(12)][r.Intn(4)].BWPerCycle = req
		b := NewBounds(tab)
		m := randomMapping(12, 4, r)
		if b.HasVirtual() {
			t.Errorf("req %g: HasVirtual true", req)
		}
		if best, worst, ok := b.Virtual(&VirtualScratch{}, &m); ok || best.TotalCycles != 0 || worst.TotalCycles != 0 || best.Energy != 0 || worst.Energy != 0 {
			t.Errorf("req %g: Virtual = %+v, %+v, %v; want zero Results, false", req, best, worst, ok)
		}
	}
	// randomTable mixes compute-bound and sub-threshold entries in.
	if NewBounds(randomTable(r, 40, 6)).HasVirtual() {
		t.Error("randomTable's bandwidth-free entries left the virtual makespan on")
	}
}

// TestVirtualMakespanZeroAlloc pins that a warm VirtualScratch brackets
// a schedule without allocating.
func TestVirtualMakespanZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tab := bandwidthTable(r, 100, 16, false)
	b := NewBounds(tab)
	m := randomMapping(100, 16, r)
	s := &VirtualScratch{}
	b.Virtual(s, &m)
	if n := testing.AllocsPerRun(100, func() { b.Virtual(s, &m) }); n != 0 {
		t.Errorf("Virtual allocates %v times per call, want 0", n)
	}
}

// FuzzVirtualMakespan feeds arbitrary mappings (fuzzMapping) over a
// bandwidth-only table drawn from seed, with coarse cycle counts when
// seed is odd. For every valid mapping Virtual's bracket must hold Run's
// Result, and the virtual makespan must agree with Run to rounding.
// Explore beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzVirtualMakespan -fuzztime=10s ./internal/sim/
func FuzzVirtualMakespan(f *testing.F) {
	const nJobs, nAccels = 6, 3
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		tab := bandwidthTable(rand.New(rand.NewSource(seed)), nJobs, nAccels, seed%2 != 0)
		m := fuzzMapping(data)
		if m.Validate(nJobs, nAccels) != nil {
			return
		}
		checkVirtual(t, "fuzz", NewBounds(tab), &VirtualScratch{}, tab, m)
	})
}

// FuzzVirtualCut feeds FuzzVirtualMakespan's mappings and tables to
// VirtualCut with a cut at frac times the full walk's makespan. A walk
// that stops returns an optimistic makespan above the cut and at most
// the full walk's makespan (so at most Run's), with a zero worst; a
// walk that never stops returns bit for bit what the uncut walk
// returns. Explore beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzVirtualCut -fuzztime=10s ./internal/sim/
func FuzzVirtualCut(f *testing.F) {
	const nJobs, nAccels = 6, 3
	f.Fuzz(func(t *testing.T, seed int64, data []byte, frac float64) {
		tab := bandwidthTable(rand.New(rand.NewSource(seed)), nJobs, nAccels, seed%2 != 0)
		m := fuzzMapping(data)
		if m.Validate(nJobs, nAccels) != nil {
			return
		}
		b, s := NewBounds(tab), &VirtualScratch{}
		roof := b.roofline(&m)
		full, _ := b.virtual(s, &m, roof, math.Inf(1))
		wantBest, wantWorst, _ := b.Virtual(s, &m)
		cut := frac * full
		best, worst, halted := b.VirtualCut(s, &m, roof, cut)
		if !halted {
			for _, c := range []struct{ got, want Result }{{best, wantBest}, {worst, wantWorst}} {
				if !sameResult(c.got, c.want) {
					t.Fatalf("cut %v never reached, but the walk returned %+v, the uncut walk %+v", cut, c.got, c.want)
				}
			}
			return
		}
		if !(best.TotalCycles > cut) {
			t.Fatalf("walk halted at optimistic makespan %v, not above its cut %v", best.TotalCycles, cut)
		}
		if best.TotalCycles > full {
			t.Fatalf("walk halted at optimistic makespan %v, above the full walk's %v", best.TotalCycles, full)
		}
		run, err := Run(tab, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if best.TotalCycles > run.TotalCycles {
			t.Fatalf("walk halted at optimistic makespan %v, above Run's %v", best.TotalCycles, run.TotalCycles)
		}
		if !sameResult(worst, Result{}) {
			t.Fatalf("halted walk returned worst %+v, want zero", worst)
		}
	})
}

// sameResult reports whether two bound Results agree bit for bit in
// every scalar field.
func sameResult(a, b Result) bool {
	bits := math.Float64bits
	return bits(a.TotalCycles) == bits(b.TotalCycles) && bits(a.Seconds) == bits(b.Seconds) &&
		bits(a.ThroughputGFLOPs) == bits(b.ThroughputGFLOPs) && bits(a.Energy) == bits(b.Energy)
}

// BenchmarkVirtualMakespan brackets random schedules on a random
// bandwidth-only table with Bounds.Virtual, beside Run on the same
// inputs. It cycles through
// 64 mappings, as a search would, so neither loop runs on branch
// history learned from one schedule. cmd/bench reports the
// jobs=100/accels=4 ratio run/virtual as virtual_speedup.
func BenchmarkVirtualMakespan(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, size := range []struct{ jobs, accels int }{
		{16, 4}, {100, 4}, {100, 16},
	} {
		tab := bandwidthTable(r, size.jobs, size.accels, false)
		maps := make([]Mapping, 64)
		for i := range maps {
			maps[i] = randomMapping(size.jobs, size.accels, r)
		}
		bounds := NewBounds(tab)
		s := &VirtualScratch{}
		sim := NewSimulator(Options{})
		b.Run(fmt.Sprintf("jobs=%d/accels=%d/virtual", size.jobs, size.accels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bounds.Virtual(s, &maps[i%len(maps)])
			}
		})
		b.Run(fmt.Sprintf("jobs=%d/accels=%d/run", size.jobs, size.accels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(tab, maps[i%len(maps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
