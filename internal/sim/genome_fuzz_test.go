package sim_test

import (
	"encoding/binary"
	"math"
	"testing"

	"magma/internal/analyzer"
	"magma/internal/encoding"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/sim"
	"magma/internal/workload"
)

// fuzzGenome turns arbitrary bytes into a genome: accel byte b becomes
// gene b%8−1 (in range on four cores for half the byte values, and
// negative or too large otherwise, over any genome length), and each
// priority gene takes the next 8 bytes of prioBits as float64 bits,
// zero-padded, so priorities reach NaN, ±Inf, negatives and values ≥ 1.
func fuzzGenome(accelBytes, prioBits []byte) encoding.Genome {
	g := encoding.Genome{Accel: make([]int, len(accelBytes)), Prio: make([]float64, len(accelBytes))}
	var word [8]byte
	for j, b := range accelBytes {
		g.Accel[j] = int(b%8) - 1
		clear(word[:])
		if off := 8 * j; off < len(prioBits) {
			copy(word[:], prioBits[off:])
		}
		g.Prio[j] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	return g
}

// FuzzGenomeBound checks the law the search runner's pruning pass
// rests on, over a 6-job Mix group on the four cores of S2: for any
// accel and priority bits, Bounds.GenomeRoofline never panics, accepts
// exactly the genomes Genome.Validate accepts, and when it accepts one,
// its makespan bound is at most the simulated makespan of the genome's
// decoded schedule. Explore beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzGenomeBound -fuzztime=10s ./internal/sim/
func FuzzGenomeBound(f *testing.F) {
	const nJobs = 6
	p := platform.S2().WithBW(8)
	nAccels := p.NumAccels()
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: nJobs, GroupSize: nJobs, Seed: 17})
	if err != nil {
		f.Fatal(err)
	}
	tab, err := analyzer.Build(w.Groups[0], p)
	if err != nil {
		f.Fatal(err)
	}
	b := sim.NewBounds(tab)
	f.Fuzz(func(t *testing.T, accelBytes, prioBits []byte) {
		g := fuzzGenome(accelBytes, prioBits)
		cycles := make([]float64, nAccels)
		roof, ok := b.GenomeRoofline(cycles, g.Accel, g.Prio, true)
		if valid := g.Validate(nJobs, nAccels) == nil; ok != valid {
			t.Fatalf("GenomeRoofline ok=%v on genome %v, Validate says %v", ok, g, valid)
		}
		if !ok {
			if roof != (sim.Roofline{}) {
				t.Fatalf("refused genome priced at %+v", roof)
			}
			return
		}
		res := b.RooflineResult(roof)
		got, err := sim.Run(tab, encoding.Decode(g, nAccels), sim.Options{})
		if err != nil {
			t.Fatalf("accepted genome decodes to an invalid mapping: %v", err)
		}
		if res.TotalCycles > got.TotalCycles {
			t.Fatalf("bound %g exceeds the simulated makespan %g", res.TotalCycles, got.TotalCycles)
		}
	})
}
