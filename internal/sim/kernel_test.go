package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"magma/internal/analyzer"
	"magma/internal/fault"
	"magma/internal/models"
	"magma/internal/platform"
)

// kernelTol is the v2≡v1 comparison tolerance. The shipped kernel and
// the v1 oracle share the retirement tolerances (work ≤ 1e-6·req, noBW
// ≤ 1e-9 cycles) but order their floating-point arithmetic differently
// — v1 decrements work per frame, v2 computes one completion key per
// launch — so completion instants agree to roughly the retirement
// window, not to the bit.
func kernelTol(ref float64) float64 {
	return 1e-6 * (1 + math.Abs(ref))
}

// randomTable synthesizes a heterogeneous analyzer table directly:
// nAccels cores sliced from the S6 big-little platform at a random
// system bandwidth, each (job, accel) cell drawn with a random no-stall
// latency and a bandwidth requirement that is BW-hungry, exactly zero,
// or sub-threshold tiny (≤1e-12, the BW-free launch cutoff) — the three
// req regimes the kernels must agree on.
func randomTable(r *rand.Rand, nJobs, nAccels int) *analyzer.Table {
	p := platform.S6()
	p.SubAccels = p.SubAccels[:nAccels]
	p.SystemBWGBs = 1 + r.Float64()*63
	t := &analyzer.Table{Entries: make([][]analyzer.Entry, nJobs), Platform: p}
	for j := 0; j < nJobs; j++ {
		row := make([]analyzer.Entry, nAccels)
		for a := 0; a < nAccels; a++ {
			e := analyzer.Entry{
				Cycles: 1 + r.Int63n(20000),
				Energy: r.Float64() * 1e4,
			}
			switch x := r.Float64(); {
			case x < 0.2: // compute-bound
				e.BWPerCycle = 0
			case x < 0.3: // sub-threshold: contributes to Σreq, runs BW-free
				e.BWPerCycle = 1e-13
			default:
				e.BWPerCycle = 0.01 + r.Float64()*8
			}
			row[a] = e
		}
		t.Entries[j] = row
	}
	return t
}

// kernels are the shipped Run and the v1 oracle, for the checks both
// must pass.
var kernels = []struct {
	name string
	run  func(*analyzer.Table, Mapping) (Result, error)
}{
	{"shipped", func(t *analyzer.Table, m Mapping) (Result, error) { return Run(t, m, Options{}) }},
	{"v1 oracle", runOracle},
}

// checkKernelsAgree runs one mapping through the shipped kernel and the
// v1 oracle and asserts they match within the retirement tolerance:
// identical JobRuns completion order and retirement set (same
// JobID/AccelID sequence), per-run Start/End and makespan within
// kernelTol, and the derived metrics consistent.
func checkKernelsAgree(t *testing.T, tab *analyzer.Table, m Mapping) {
	t.Helper()
	v1, err := runOracle(tab, m)
	if err != nil {
		t.Fatalf("kernel v1: %v", err)
	}
	v2, err := Run(tab, m, Options{})
	if err != nil {
		t.Fatalf("kernel v2: %v", err)
	}
	if len(v1.JobRuns) != len(v2.JobRuns) {
		t.Fatalf("v1 retired %d jobs, v2 %d", len(v1.JobRuns), len(v2.JobRuns))
	}
	for i := range v1.JobRuns {
		r1, r2 := v1.JobRuns[i], v2.JobRuns[i]
		if r1.JobID != r2.JobID || r1.AccelID != r2.AccelID {
			t.Fatalf("completion order diverges at %d: v1 job %d on %d, v2 job %d on %d",
				i, r1.JobID, r1.AccelID, r2.JobID, r2.AccelID)
		}
		if math.Abs(r1.Start-r2.Start) > kernelTol(r1.Start) || math.Abs(r1.End-r2.End) > kernelTol(r1.End) {
			t.Fatalf("job %d window v1 [%g,%g] vs v2 [%g,%g]",
				r1.JobID, r1.Start, r1.End, r2.Start, r2.End)
		}
	}
	if math.Abs(v1.TotalCycles-v2.TotalCycles) > kernelTol(v1.TotalCycles) {
		t.Fatalf("makespan v1 %g vs v2 %g", v1.TotalCycles, v2.TotalCycles)
	}
	if math.Abs(v1.Energy-v2.Energy) > kernelTol(v1.Energy) {
		t.Fatalf("energy v1 %g vs v2 %g", v1.Energy, v2.Energy)
	}
}

// TestKernelV2MatchesV1Property is the v2≡v1 contract over random
// tables: 4–128 jobs × 2–16 heterogeneous cores.
func TestKernelV2MatchesV1Property(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nJobs := 4 + r.Intn(125)  // 4..128
		nAccels := 2 + r.Intn(15) // 2..16
		tab := randomTable(r, nJobs, nAccels)
		m := randomMapping(nJobs, nAccels, r)
		checkKernelsAgree(t, tab, m)
	}
}

// TestKernelV2MatchesV1RealTable repeats the agreement check on a real
// analyzed workload (integer-cycle ties and repeated layers galore).
func TestKernelV2MatchesV1RealTable(t *testing.T) {
	tab := buildTable(t, models.Mix, 40, platform.S2().WithBW(4))
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		checkKernelsAgree(t, tab, randomMapping(40, 4, r))
	}
}

// TestKernelV2Deterministic pins self-determinism: the same mapping
// through a reused v2 Simulator and through fresh ones is bit-identical
// (the property the fingerprint cache and parallel engine rely on).
func TestKernelV2Deterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tab := randomTable(r, 60, 8)
	m := randomMapping(60, 8, r)
	s := NewSimulator(Options{})
	first, err := s.Run(tab, m)
	if err != nil {
		t.Fatal(err)
	}
	// Deep-copy: the Result aliases the Simulator's scratch.
	want := first
	want.JobRuns = append([]JobRun(nil), first.JobRuns...)
	want.BusyCycles = append([]float64(nil), first.BusyCycles...)
	for i := 0; i < 5; i++ {
		got, err := s.Run(tab, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.JobRuns, want.JobRuns) || got.TotalCycles != want.TotalCycles ||
			got.Energy != want.Energy || !reflect.DeepEqual(got.BusyCycles, want.BusyCycles) {
			t.Fatalf("rerun %d diverged", i)
		}
	}
	fresh, err := Run(tab, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.JobRuns, want.JobRuns) || fresh.TotalCycles != want.TotalCycles {
		t.Fatal("fresh simulator diverged from reused one")
	}
}

// TestKernelV2ZeroAlloc asserts the event kernel and the SoA table
// memo allocate nothing in steady state.
func TestKernelV2ZeroAlloc(t *testing.T) {
	tab := buildTable(t, models.Mix, 40, platform.S2().WithBW(4))
	m := roundRobin(40, 4)
	for _, opt := range []Options{{}, {CaptureFrames: true}} {
		s := NewSimulator(opt)
		if _, err := s.Run(tab, m); err != nil { // warm up scratch + SoA memo
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Run(tab, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("opt %+v: steady-state v2 Run allocates %.1f times, want 0", opt, allocs)
		}
	}
}

// TestKernelV2BoundsSound re-verifies the analytical lower bound
// against the shipped kernel and the v1 oracle: for random
// mappings over random tables, bound ≤ simulated makespan and the
// bound Result's fitness upper-bounds the simulated fitness.
func TestKernelV2BoundsSound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nJobs := 4 + r.Intn(60)
		nAccels := 2 + r.Intn(15)
		tab := randomTable(r, nJobs, nAccels)
		m := randomMapping(nJobs, nAccels, r)
		b := NewBounds(tab)
		cb := make(CoreBounds, nAccels)
		b.CoresInto(cb, &m)
		lb := b.LowerBound(cb)
		for _, k := range kernels {
			res, err := k.run(tab, m)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles < lb {
				t.Fatalf("trial %d %s: bound %g beats simulated makespan %g", trial, k.name, lb, res.TotalCycles)
			}
			opt := b.Result(cb)
			if opt.Energy > res.Energy {
				t.Fatalf("trial %d %s: bound energy %g exceeds simulated %g", trial, k.name, opt.Energy, res.Energy)
			}
		}
	}
}

// TestKernelFaultPoint pins the sim.kernel chaos point: an armed error
// hook fails the shipped Run (the injected error surfaces from it)
// while the v1 oracle never passes through it.
func TestKernelFaultPoint(t *testing.T) {
	defer fault.Reset()
	tab := buildTable(t, models.Vision, 12, platform.S1())
	m := roundRobin(12, 4)
	boom := errors.New("boom")
	fault.Enable(fault.SimKernel, func() error { return boom })
	if _, err := Run(tab, m, Options{}); !errors.Is(err, boom) {
		t.Fatalf("Run with armed sim.kernel point: err = %v, want %v", err, boom)
	}
	if _, err := runOracle(tab, m); err != nil {
		t.Fatalf("v1 oracle must not pass the sim.kernel point: %v", err)
	}
	if got := fault.Hits(fault.SimKernel); got != 1 {
		t.Fatalf("sim.kernel hits = %d, want 1", got)
	}
	fault.Disable(fault.SimKernel)
	res, err := Run(tab, m, Options{})
	if err != nil || len(res.JobRuns) != 12 {
		t.Fatalf("disarmed run: %v (%d runs)", err, len(res.JobRuns))
	}
}

// TestValidatorMatchesValidate drives the pooled Validator against the
// allocating Mapping.Validate across valid and invalid mappings and
// checks reuse never leaks marker state.
func TestValidatorMatchesValidate(t *testing.T) {
	var v Validator
	cases := []struct {
		m              Mapping
		nJobs, nAccels int
	}{
		{roundRobin(10, 3), 10, 3},
		{roundRobin(10, 3), 10, 2},                       // queue-count mismatch
		{Mapping{Queues: [][]int{{0, 1, 1}, {2}}}, 3, 2}, // duplicate
		{Mapping{Queues: [][]int{{0}, {2}}}, 3, 2},       // missing
		{Mapping{Queues: [][]int{{0, 5}, {1, 2}}}, 3, 2}, // out of range
		{roundRobin(128, 16), 128, 16},                   // grow
		{roundRobin(4, 2), 4, 2},                         // shrink after grow
	}
	for i, c := range cases {
		got := v.Validate(c.m, c.nJobs, c.nAccels)
		want := c.m.Validate(c.nJobs, c.nAccels)
		if (got == nil) != (want == nil) {
			t.Fatalf("case %d: pooled %v, one-shot %v", i, got, want)
		}
		if got != nil && want != nil && got.Error() != want.Error() {
			t.Fatalf("case %d: pooled %q, one-shot %q", i, got, want)
		}
	}
	m := roundRobin(40, 4)
	if err := v.Validate(m, 40, 4); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := v.Validate(m, 40, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Validator.Validate allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkKernel compares the v1 oracle and the shipped kernel ns/run
// across problem sizes — the complexity claim (O(J·A) → O(J·log A))
// should show as a widening gap with the core count. CI gates the
// jobs=100/accels=16 ratio v1oracle/shipped at ≥ 1.2.
func BenchmarkKernel(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, size := range []struct{ jobs, accels int }{
		{16, 4}, {48, 8}, {100, 16},
	} {
		tab := randomTable(r, size.jobs, size.accels)
		m := randomMapping(size.jobs, size.accels, r)
		for _, k := range []struct {
			name string
			run  func(*analyzer.Table, Mapping) (Result, error)
		}{{"v1oracle", newOracle(Options{}).Run}, {"shipped", NewSimulator(Options{}).Run}} {
			b.Run(fmt.Sprintf("jobs=%d/accels=%d/%s", size.jobs, size.accels, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.run(tab, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
