// Package encoding implements the M3E mapping encoding (§IV-A, Fig. 5a).
//
// An individual encodes a full global mapping for one group of jobs in
// two genomes of group-size length each:
//
//   - the sub-accelerator-selection genome: one integer gene per job,
//     naming the core the job runs on, and
//   - the job-prioritizing genome: one float gene per job in [0,1),
//     where lower values run earlier on their core (0 = highest priority).
//
// Decoding produces the per-core ordered queues of Fig. 4(a). A
// continuous vector view (all genes in [0,1)) serves the black-box
// optimizers, which perturb real vectors.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"magma/internal/sim"
)

// Genome is one individual: a full encoded mapping.
type Genome struct {
	Accel []int     // sub-accelerator selection section
	Prio  []float64 // job prioritizing section, values in [0,1)
}

// NumJobs returns the group size the genome encodes.
func (g Genome) NumJobs() int { return len(g.Accel) }

// Validate checks structural consistency against the problem dimensions.
func (g Genome) Validate(nJobs, nAccels int) error {
	if len(g.Accel) != nJobs || len(g.Prio) != nJobs {
		return fmt.Errorf("encoding: genome sections %d/%d, want %d", len(g.Accel), len(g.Prio), nJobs)
	}
	for i, a := range g.Accel {
		if a < 0 || a >= nAccels {
			return fmt.Errorf("encoding: gene %d selects accel %d (nAccels=%d)", i, a, nAccels)
		}
	}
	for i, p := range g.Prio {
		if !validPrio(p) {
			return fmt.Errorf("encoding: gene %d priority %f outside [0,1)", i, p)
		}
	}
	return nil
}

// validPrio reports whether p is a priority gene in [0,1); NaN is not.
func validPrio(p float64) bool { return p >= 0 && p < 1 }

// Clone deep-copies the genome.
func (g Genome) Clone() Genome {
	return Genome{
		Accel: append([]int(nil), g.Accel...),
		Prio:  append([]float64(nil), g.Prio...),
	}
}

// Rand is the randomness Random consumes. Both *math/rand.Rand and
// internal/rng's *Stream satisfy it, so the encoding stays agnostic to
// which RNG layout a caller runs under.
type Rand interface {
	Intn(n int) int
	Float64() float64
}

// Random draws a uniform random individual.
func Random(nJobs, nAccels int, r Rand) Genome {
	g := Genome{Accel: make([]int, nJobs), Prio: make([]float64, nJobs)}
	for i := range g.Accel {
		g.Accel[i] = r.Intn(nAccels)
		g.Prio[i] = r.Float64()
	}
	return g
}

// Decode turns the genome into per-core ordered queues: jobs selecting a
// core are sorted by ascending priority gene (ties by job ID, making the
// decoding deterministic).
//
// Decode, DecodeInto and the fingerprints built on them require a genome
// that passes Validate. Given two sections of equal length and accel
// genes in range, they still return without panicking for any priority
// bits (NaN, negative, ≥ 1), and each core's queue is a permutation of
// the jobs selecting it, but the order within a queue is then
// unspecified.
func Decode(g Genome, nAccels int) sim.Mapping {
	var m sim.Mapping
	DecodeInto(g, nAccels, &m)
	return m
}

// DecodeInto decodes the genome into m, reusing m's queue buffers. It
// produces exactly the mapping Decode returns, but steady-state — once
// the queues have grown to the genome's per-core occupancy — it performs
// zero heap allocations, which makes it the decode step of the
// evaluation engine (one scratch Mapping per search).
//
// The decode sorts all jobs once (sortJobs) and deals them out to their
// cores in that order, so each queue comes out sorted. The sort's
// scratch lives in queue 0's buffer, grown to three times the group
// size J: each job's bucket in the first J slots, which hold no job
// until the jobs are dealt out, and the sorted order and the bucket
// offsets behind them, which queue 0, never longer than J, cannot reach.
func DecodeInto(g Genome, nAccels int, m *sim.Mapping) {
	sizeQueues(m, nAccels)
	for a := range m.Queues {
		m.Queues[a] = m.Queues[a][:0]
	}
	n := len(g.Accel)
	if n == 0 {
		return
	}
	if cap(m.Queues[0]) < 3*n {
		m.Queues[0] = make([]int, 0, 3*n)
	}
	buf := m.Queues[0][:3*n]
	order := buf[n : 2*n]
	sortJobs(order, buf[2*n:], buf[:n], g.Prio)
	queues, accel := m.Queues, g.Accel
	for _, j := range order {
		a := accel[j]
		queues[a] = append(queues[a], j)
	}
}

// SameSchedule reports whether a and b decode to the same mapping,
// without decoding either: the accel sections must be equal, and every
// core must order its jobs the same way by (priority gene, job ID),
// Decode's tie rule. It compares the accel sections first, returning at
// the first difference, and then checks order only for the pairs of
// jobs sharing a core in which at least one priority gene differs; a
// pair whose genes both match keeps its order. For genomes that pass
// Validate it agrees with comparing the decoded mappings; it never
// panics, and a NaN priority gene never matches.
func SameSchedule(a, b Genome) bool {
	n := len(a.Accel)
	if len(b.Accel) != n || len(a.Prio) != n || len(b.Prio) != n {
		return false
	}
	for j, x := range a.Accel {
		if b.Accel[j] != x {
			return false
		}
	}
	for j, p := range a.Prio {
		q := b.Prio[j]
		if p == q {
			continue
		}
		if math.IsNaN(p) || math.IsNaN(q) {
			return false
		}
		c := a.Accel[j]
		for k, ck := range a.Accel {
			if ck == c && k != j && runsFirst(a.Prio, j, k) != runsFirst(b.Prio, j, k) {
				return false
			}
		}
	}
	return true
}

// runsFirst reports whether job j precedes job k on a shared core:
// a lower priority gene first, ties by job ID.
func runsFirst(prio []float64, j, k int) bool {
	return prio[j] < prio[k] || (prio[j] == prio[k] && j < k)
}

// sizeQueues resizes m to nAccels queues, keeping already-grown
// per-core buffers. Queue contents are left as-is; callers truncate or
// overwrite per core.
func sizeQueues(m *sim.Mapping, nAccels int) {
	if cap(m.Queues) >= nAccels {
		m.Queues = m.Queues[:nAccels]
		return
	}
	q := make([][]int, nAccels)
	copy(q, m.Queues)
	m.Queues = q
}

// sortJobs writes the jobs 0..n-1 into order (length n) by ascending
// priority gene, ties by job ID, in time linear in n when the
// priorities are spread over [0,1); start and bkt (length n each) are
// scratch for the bucket offsets and each job's bucket. It counts the
// jobs into n buckets (bucket), scatters them stably in job order, and
// runs one insertion pass over that nearly sorted order. Since bucket is
// monotone in the priority, the insertion pass only reorders jobs
// within a bucket, and equal priorities keep the job order the scatter
// gave them; with every priority in one bucket it degrades to a plain
// insertion sort.
func sortJobs(order, start, bkt []int, prio []float64) {
	n := len(order)
	clear(start)
	for j, p := range prio {
		b := bucket(p, n)
		bkt[j] = b
		start[b]++
	}
	sum := 0
	for b, c := range start {
		start[b] = sum
		sum += c
	}
	for j, b := range bkt {
		order[start[b]] = j
		start[b]++
	}
	top := prio[order[0]] // the highest priority placed so far
	for i := 1; i < n; i++ {
		j := order[i]
		pj := prio[j]
		if pj >= top {
			top = pj
			continue
		}
		k := i - 1
		for k >= 0 && prio[order[k]] > pj {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
}

// bucket is priority p's bucket among n, ⌊p·n⌋ clamped into [0, n);
// NaN lands in bucket 0. It is monotone in p, so a job in a lower
// bucket always has a strictly lower priority.
func bucket(p float64, n int) int {
	x := p * float64(n)
	if b := int(x); uint(b) < uint(n) {
		return b
	}
	if x >= float64(n) {
		return n - 1
	}
	return 0
}

// ToVector flattens the genome into a continuous vector of length
// 2×nJobs with every component in [0,1): the accel section is scaled by
// nAccels, the priority section is copied.
func (g Genome) ToVector(nAccels int) []float64 {
	n := len(g.Accel)
	v := make([]float64, 2*n)
	for i, a := range g.Accel {
		v[i] = (float64(a) + 0.5) / float64(nAccels)
	}
	copy(v[n:], g.Prio)
	return v
}

// FromVector builds a genome from a continuous vector (inverse of
// ToVector). Components are clamped into [0,1); the accel section is
// quantized by flooring.
func FromVector(v []float64, nAccels int) (Genome, error) {
	if len(v)%2 != 0 {
		return Genome{}, fmt.Errorf("encoding: odd vector length %d", len(v))
	}
	n := len(v) / 2
	g := Genome{Accel: make([]int, n), Prio: make([]float64, n)}
	for i := 0; i < n; i++ {
		g.Accel[i] = quantize(clamp01(v[i]), nAccels)
		g.Prio[i] = clamp01(v[n+i])
	}
	return g, nil
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x >= 1:
		return math.Nextafter(1, 0)
	default:
		return x
	}
}

func quantize(x float64, n int) int {
	a := int(x * float64(n))
	if a >= n {
		a = n - 1
	}
	return a
}

// Key returns a compact comparable identifier of the decoded schedule:
// genomes have equal keys exactly when they decode to the same mapping.
// Priorities are reduced to their rank order per core, so it is stable
// under monotone re-scaling of the priority genes.
//
// Each queue is serialized as uvarint(len) followed by uvarint(jobID) —
// a prefix-free code, so the encoding is injective for any job ID (the
// previous 16-bit scheme truncated IDs >= 65536 and used a 0xff,0xff
// separator that was ambiguous with job ID 65535). Key survives for
// callers that want a printable/string identity; hot paths should use
// Fingerprint, which is allocation-free.
func (g Genome) Key(nAccels int) string {
	m := Decode(g, nAccels)
	buf := make([]byte, 0, 2*len(g.Accel)+2*len(m.Queues))
	var tmp [binary.MaxVarintLen64]byte
	for _, q := range m.Queues {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(q)))]...)
		for _, j := range q {
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(j))]...)
		}
	}
	return string(buf)
}
