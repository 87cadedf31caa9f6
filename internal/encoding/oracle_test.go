package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"magma/internal/sim"
)

// oracleDecode is the decode the bucketed DecodeInto replaced, kept as
// the reference it is compared against.
func oracleDecode(g Genome, nAccels int) sim.Mapping {
	var m sim.Mapping
	oracleDecodeInto(g, nAccels, &m)
	return m
}

// oracleDecodeInto appends the jobs to their core's queue in ascending
// job ID and insertion-sorts each queue by (priority, job ID), O(n²)
// per queue, reusing m's queue buffers.
func oracleDecodeInto(g Genome, nAccels int, m *sim.Mapping) {
	sizeQueues(m, nAccels)
	for a := range m.Queues {
		m.Queues[a] = m.Queues[a][:0]
	}
	for j, a := range g.Accel {
		m.Queues[a] = append(m.Queues[a], j)
	}
	for _, q := range m.Queues {
		oracleSortQueue(q, g.Prio)
	}
}

// oracleSortQueue is the stable insertion sort by ascending priority
// gene, ties by job ID.
func oracleSortQueue(q []int, prio []float64) {
	for i := 1; i < len(q); i++ {
		j := q[i]
		pj := prio[j]
		k := i - 1
		for k >= 0 {
			pk := prio[q[k]]
			if pk < pj || (pk == pj && q[k] < j) {
				break
			}
			q[k+1] = q[k]
			k--
		}
		q[k+1] = j
	}
}

// Priority generators for the oracle comparison: uniform, tie-heavy
// (five levels), ties among inversions inside one bucket (five levels,
// each split three ways by 1e-12), and clustered (every gene in one
// bucket, [0, 1/J²)).
var prioShapes = []struct {
	name string
	draw func(r *rand.Rand, nJobs int) float64
}{
	{"uniform", func(r *rand.Rand, _ int) float64 { return r.Float64() }},
	{"ties", func(r *rand.Rand, _ int) float64 { return float64(r.Intn(5)) / 5 }},
	{"near-ties", func(r *rand.Rand, _ int) float64 { return float64(r.Intn(5))/5 + float64(r.Intn(3))*1e-12 }},
	{"clustered", func(r *rand.Rand, nJobs int) float64 { return r.Float64() / float64(nJobs*nJobs) }},
}

func shapedGenome(r *rand.Rand, nJobs, nAccels int, draw func(*rand.Rand, int) float64) Genome {
	g := Genome{Accel: make([]int, nJobs), Prio: make([]float64, nJobs)}
	for j := range g.Accel {
		g.Accel[j] = r.Intn(nAccels)
		g.Prio[j] = draw(r, nJobs)
	}
	return g
}

// TestDecodeMatchesOracle checks DecodeInto and FingerprintInto against
// the insertion-sort oracle on uniform, tie-heavy and clustered genomes
// across group sizes, reusing one scratch mapping so grown and regrown
// queue buffers are both exercised.
func TestDecodeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var m, fm sim.Mapping
	for _, shape := range prioShapes {
		for _, nJobs := range []int{1, 16, 100, 300} {
			for iter := 0; iter < 40; iter++ {
				nAccels := 1 + r.Intn(8)
				g := shapedGenome(r, nJobs, nAccels, shape.draw)
				want := oracleDecode(g, nAccels)
				DecodeInto(g, nAccels, &m)
				if !reflect.DeepEqual(normalize(m), normalize(want)) {
					t.Fatalf("%s J=%d A=%d: DecodeInto\n got %v\nwant %v", shape.name, nJobs, nAccels, m.Queues, want.Queues)
				}
				if got, wantFP := g.FingerprintInto(nAccels, &fm), FingerprintMapping(want); got != wantFP {
					t.Fatalf("%s J=%d A=%d: FingerprintInto %v, oracle %v", shape.name, nJobs, nAccels, got, wantFP)
				}
			}
		}
	}
}

// fuzzGenome turns arbitrary bytes into a genome with in-range accel
// genes. The first byte picks the core count (1–8); each job then reads
// an accel byte (taken modulo the core count) and a priority byte. A
// priority byte below 0xF0 is the level b/240, so ties are common; from
// 0xF0 up the next eight bytes are the priority's raw float64 bits
// (NaN when fewer remain), so any priority reaches the decoder.
func fuzzGenome(data []byte) (Genome, int) {
	if len(data) == 0 {
		return Genome{}, 1
	}
	nAccels := 1 + int(data[0]%8)
	var g Genome
	for rest := data[1:]; len(rest) >= 2; {
		a, p := int(rest[0])%nAccels, rest[1]
		rest = rest[2:]
		prio := float64(p) / 240
		if p >= 0xF0 {
			prio = math.NaN()
			if len(rest) >= 8 {
				prio = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
			}
		}
		g.Accel = append(g.Accel, a)
		g.Prio = append(g.Prio, prio)
	}
	return g, nAccels
}

// FuzzDecode feeds the decoder genomes with in-range accel genes and
// arbitrary priorities. It must never panic, each core's queue must be
// a permutation of the jobs selecting that core, and whenever the
// genome passes Validate the decode and its fingerprint must equal the
// oracle's. Explore beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/encoding/
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, nAccels := fuzzGenome(data)
		var m sim.Mapping
		DecodeInto(g, nAccels, &m)
		if len(m.Queues) != nAccels {
			t.Fatalf("%d queues, want %d", len(m.Queues), nAccels)
		}
		for a, q := range m.Queues {
			var jobs []int
			for j, ga := range g.Accel {
				if ga == a {
					jobs = append(jobs, j)
				}
			}
			got := slices.Clone(q)
			slices.Sort(got)
			if !slices.Equal(got, jobs) {
				t.Fatalf("core %d queue %v is not a permutation of its jobs %v", a, q, jobs)
			}
		}
		if g.Validate(len(g.Accel), nAccels) != nil {
			return
		}
		want := oracleDecode(g, nAccels)
		if !reflect.DeepEqual(normalize(m), normalize(want)) {
			t.Fatalf("decode %v, oracle %v", m.Queues, want.Queues)
		}
		if got := g.FingerprintInto(nAccels, &m); got != FingerprintMapping(want) {
			t.Fatalf("fingerprint %v, oracle %v", got, FingerprintMapping(want))
		}
	})
}

// BenchmarkDecodeInto times the shipped decode and the oracle on one
// genome per case: uniform priorities at J=16 and J=100 on four cores,
// and the clustered case, where every priority shares one bucket and
// the decode's insertion pass sorts the whole group (its worst case).
func BenchmarkDecodeInto(b *testing.B) {
	const nAccels = 4
	cases := []struct {
		nJobs int
		shape int // index into prioShapes
	}{{16, 0}, {100, 0}, {100, 3}}
	for _, c := range cases {
		g := shapedGenome(rand.New(rand.NewSource(3)), c.nJobs, nAccels, prioShapes[c.shape].draw)
		name := fmt.Sprintf("jobs=%d/accels=%d/%s", c.nJobs, nAccels, prioShapes[c.shape].name)
		b.Run(name+"/shipped", func(b *testing.B) {
			var m sim.Mapping
			DecodeInto(g, nAccels, &m) // warm up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DecodeInto(g, nAccels, &m)
			}
		})
		b.Run(name+"/oracle", func(b *testing.B) {
			m := oracleDecode(g, nAccels)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oracleDecodeInto(g, nAccels, &m)
			}
		})
	}
}
