package sim

import (
	"math"
	"math/rand"
	"testing"

	"magma/internal/models"
	"magma/internal/platform"
)

// twoCoreHetero builds a 2-core heterogeneous platform (one HB + one LB
// core from S2) so the bound property is exercised at the small end of
// the core-count range too.
func twoCoreHetero() platform.Platform {
	s2 := platform.S2()
	p := platform.Platform{
		Name:        "2-hetero",
		SubAccels:   []platform.SubAccel{s2.SubAccels[0], s2.SubAccels[3]},
		SystemBWGBs: 8,
	}
	p.SubAccels[1].ID = 1
	return p
}

// TestQuickBoundNeverBeatsSimulation is the bound's soundness contract:
// over randomized schedules spanning 4–128 jobs and 2–16 heterogeneous
// cores, under the shipped kernel and the v1 oracle, the analytical
// lower bound never exceeds the simulated makespan — and the
// optimistic Result dominates the simulated one in every objective
// direction (throughput, latency, energy, energy-delay product), which
// is what makes the derived fitness an upper bound. Both accumulators are covered: the per-core
// one over a decoded mapping (CoresInto) and the genome-order one the
// search runner prices before decoding (GenomeRoofline, with job
// energy), and the two agree to within 1e-12 relative.
func TestQuickBoundNeverBeatsSimulation(t *testing.T) {
	cases := []struct {
		name  string
		nJobs int
		p     platform.Platform
	}{
		{"4jobs-2hetero", 4, twoCoreHetero()},
		{"24jobs-S2", 24, platform.S2().WithBW(4)},
		{"48jobs-S5", 48, platform.S5().WithBW(32)},
		{"128jobs-S6", 128, platform.S6().WithBW(64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildTable(t, models.Mix, tc.nJobs, tc.p)
			b := NewBounds(tab)
			if b.NumAccels() != tc.p.NumAccels() {
				t.Fatalf("NumAccels = %d, want %d", b.NumAccels(), tc.p.NumAccels())
			}
			cb := make(CoreBounds, tc.p.NumAccels())
			cycles := make([]float64, tc.p.NumAccels())
			accel := make([]int, tc.nJobs)
			prio := make([]float64, tc.nJobs)
			r := rand.New(rand.NewSource(int64(tc.nJobs)))
			for trial := 0; trial < 12; trial++ {
				m := randomMapping(tc.nJobs, tc.p.NumAccels(), r)
				for a, q := range m.Queues {
					for _, j := range q {
						accel[j] = a
					}
				}
				b.CoresInto(cb, &m)
				opt := b.Result(cb)
				roof, ok := b.GenomeRoofline(cycles, accel, prio, true)
				if !ok {
					t.Fatalf("trial %d: GenomeRoofline rejected in-range genes %v", trial, accel)
				}
				gen := b.RooflineResult(roof)
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"cycles", gen.TotalCycles, opt.TotalCycles},
					{"energy", gen.Energy, opt.Energy},
					{"throughput", gen.ThroughputGFLOPs, opt.ThroughputGFLOPs},
				} {
					if math.Abs(f.got-f.want) > 1e-12*math.Abs(f.want) {
						t.Fatalf("trial %d: genome-order %s %g != per-core %g beyond 1e-12 relative",
							trial, f.name, f.got, f.want)
					}
				}
				for _, k := range kernels {
					res, err := k.run(tab, m)
					if err != nil {
						t.Fatal(err)
					}
					if lb := b.LowerBound(cb); lb > res.TotalCycles {
						t.Fatalf("trial %d %s: bound %g exceeds simulated makespan %g",
							trial, k.name, lb, res.TotalCycles)
					}
					for _, bound := range []struct {
						name string
						res  Result
					}{{"per-core", opt}, {"genome", gen}} {
						o := bound.res
						if o.Seconds > res.Seconds {
							t.Fatalf("trial %d %s %s: bound seconds %g > simulated %g",
								trial, k.name, bound.name, o.Seconds, res.Seconds)
						}
						if o.ThroughputGFLOPs < res.ThroughputGFLOPs {
							t.Fatalf("trial %d %s %s: bound throughput %g below simulated %g",
								trial, k.name, bound.name, o.ThroughputGFLOPs, res.ThroughputGFLOPs)
						}
						if o.Energy > res.Energy {
							t.Fatalf("trial %d %s %s: bound energy %g > simulated %g",
								trial, k.name, bound.name, o.Energy, res.Energy)
						}
						if o.Energy*o.Seconds > res.Energy*res.Seconds {
							t.Fatalf("trial %d %s %s: bound EDP %g > simulated %g",
								trial, k.name, bound.name, o.Energy*o.Seconds, res.Energy*res.Seconds)
						}
					}
				}
			}
		})
	}
}

// TestBoundIncrementalMatchesFull pins the per-core accumulator's
// order stability: re-summing only the cores whose queues changed
// (copying the parent's accumulators for clean cores) yields
// bit-identical accumulators — and hence a bit-identical bound — to a
// full recompute, because per-core sums run in queue order either way.
func TestBoundIncrementalMatchesFull(t *testing.T) {
	p := platform.S2().WithBW(8)
	tab := buildTable(t, models.Mix, 24, p)
	b := NewBounds(tab)
	r := rand.New(rand.NewSource(9))
	n := p.NumAccels()

	parent := randomMapping(24, n, r)
	parentCB := make(CoreBounds, n)
	b.CoresInto(parentCB, &parent)

	for trial := 0; trial < 20; trial++ {
		// Child: swap the queues of two cores (dirtying exactly those two)
		// and keep the rest aliased to the parent's queues.
		child := Mapping{Queues: append([][]int(nil), parent.Queues...)}
		x, y := r.Intn(n), r.Intn(n)
		child.Queues[x], child.Queues[y] = parent.Queues[y], parent.Queues[x]

		incr := make(CoreBounds, n)
		copy(incr, parentCB) // clean cores: parent copy
		incr[x] = b.Core(x, child.Queues[x])
		incr[y] = b.Core(y, child.Queues[y])

		full := make(CoreBounds, n)
		b.CoresInto(full, &child)
		for a := 0; a < n; a++ {
			if incr[a] != full[a] {
				t.Fatalf("trial %d: core %d incremental %+v != full %+v", trial, a, incr[a], full[a])
			}
		}
		if b.LowerBound(incr) != b.LowerBound(full) {
			t.Fatalf("trial %d: incremental bound %g != full %g",
				trial, b.LowerBound(incr), b.LowerBound(full))
		}
	}
}

// TestBoundUpdateZeroAlloc pins the hot path's allocation budget: with
// the accumulator vector preallocated, an incremental core update plus
// the fold into a bound and an optimistic Result allocates nothing.
func TestBoundUpdateZeroAlloc(t *testing.T) {
	p := platform.S2().WithBW(8)
	tab := buildTable(t, models.Mix, 24, p)
	b := NewBounds(tab)
	m := randomMapping(24, p.NumAccels(), rand.New(rand.NewSource(3)))
	cb := make(CoreBounds, p.NumAccels())
	b.CoresInto(cb, &m)

	allocs := testing.AllocsPerRun(100, func() {
		cb[1] = b.Core(1, m.Queues[1]) // dirty-core re-sum
		_ = b.LowerBound(cb)
		_ = b.Result(cb)
	})
	if allocs != 0 {
		t.Errorf("incremental bound update allocates %v times per run, want 0", allocs)
	}
}

// TestGenomeBoundZeroAlloc pins the pruning pass's per-genome cost:
// with the per-core scratch preallocated, pricing a genome's bound
// allocates nothing.
func TestGenomeBoundZeroAlloc(t *testing.T) {
	p := platform.S2().WithBW(8)
	tab := buildTable(t, models.Mix, 24, p)
	b := NewBounds(tab)
	r := rand.New(rand.NewSource(5))
	accel, prio := make([]int, 24), make([]float64, 24)
	for j := range accel {
		accel[j], prio[j] = r.Intn(p.NumAccels()), r.Float64()
	}
	cycles := make([]float64, p.NumAccels())
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = b.GenomeRoofline(cycles, accel, prio, true)
	})
	if allocs != 0 {
		t.Errorf("genome bound allocates %v times per run, want 0", allocs)
	}
}

// TestGenomeResultChecksGenes pins the validation half of the genome
// roofline walk: an accel gene outside [0, NumAccels()), a priority
// outside [0, 1) or NaN, or a section of the wrong length is refused
// with a zero Roofline instead of being priced; -0 is a valid priority.
func TestGenomeResultChecksGenes(t *testing.T) {
	p := platform.S2().WithBW(8)
	tab := buildTable(t, models.Mix, 6, p)
	b := NewBounds(tab)
	cycles := make([]float64, p.NumAccels())
	prio := []float64{0, 0.5, 0.25, 0.75, 0.125, 0.999}
	for _, c := range []struct {
		accel []int
		prio  []float64
	}{
		{[]int{0, 1, 0, 1, 0, p.NumAccels()}, prio},
		{[]int{-1, 1, 0, 1, 0, 1}, prio},
		{[]int{0, 1, 0, 1, 0}, prio},
		{[]int{0, 1, 0, 1, 0, 1, 0}, prio},
		{nil, prio},
		{[]int{0, 1, 0, 1, 0, 1}, prio[:5]},
		{[]int{0, 1, 0, 1, 0, 1}, []float64{0, 0.5, 1, 0.75, 0.125, 0.999}},
		{[]int{0, 1, 0, 1, 0, 1}, []float64{0, 0.5, -0.25, 0.75, 0.125, 0.999}},
		{[]int{0, 1, 0, 1, 0, 1}, []float64{0, 0.5, math.NaN(), 0.75, 0.125, 0.999}},
	} {
		if r, ok := b.GenomeRoofline(cycles, c.accel, c.prio, true); ok || r != (Roofline{}) {
			t.Errorf("GenomeRoofline(%v, %v) = %+v, %v; want a zero Roofline and false", c.accel, c.prio, r, ok)
		}
	}
	if _, ok := b.GenomeRoofline(cycles, []int{0, 1, 0, 1, 0, 1}, []float64{math.Copysign(0, -1), 0.5, 0.25, 0.75, 0.125, 0.999}, true); !ok {
		t.Error("GenomeRoofline refused in-range genes")
	}
}

// TestSimulatorBoundsMemoized pins the Simulator-side memo: repeated
// calls on one table share a Bounds, and a table change rebuilds it.
func TestSimulatorBoundsMemoized(t *testing.T) {
	tabA := buildTable(t, models.Mix, 12, platform.S1())
	tabB := buildTable(t, models.Vision, 12, platform.S2())
	s := NewSimulator(Options{})
	b1 := s.Bounds(tabA)
	if b2 := s.Bounds(tabA); b2 != b1 {
		t.Error("same table rebuilt its Bounds")
	}
	b3 := s.Bounds(tabB)
	if b3 == b1 {
		t.Error("table change kept the stale Bounds")
	}
	if b3.NumAccels() != tabB.NumAccels() {
		t.Errorf("rebuilt Bounds has %d accels, want %d", b3.NumAccels(), tabB.NumAccels())
	}
}
