package magma

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"magma/internal/encoding"
	"magma/internal/rng"
)

// mutator is a bare optimizer holding only what mutate reads.
func mutator(nJobs, nAccels int, p float64) *Optimizer {
	return &Optimizer{nJobs: nJobs, nAccels: nAccels, mutGaps: newGeometric(p)}
}

// sentinel marks every gene of g as not yet re-rolled: mutate only
// writes accel genes in [0, nAccels) and priorities in [0,1).
func sentinel(g encoding.Genome) {
	for i := range g.Accel {
		g.Accel[i], g.Prio[i] = -1, -1
	}
}

// rerolled reports, per gene index (accel section, then priority
// section), whether mutate wrote it, and fails on an out-of-range value.
func rerolled(t *testing.T, g encoding.Genome, nAccels int, hit []bool) {
	t.Helper()
	n := len(g.Accel)
	for i, a := range g.Accel {
		hit[i] = a != -1
		if hit[i] && (a < 0 || a >= nAccels) {
			t.Fatalf("accel gene %d re-rolled to %d, outside [0,%d)", i, a, nAccels)
		}
	}
	for i, p := range g.Prio {
		hit[n+i] = p != -1
		if hit[n+i] && !(p >= 0 && p < 1) {
			t.Fatalf("priority gene %d re-rolled to %g, outside [0,1)", i, p)
		}
	}
}

// TestMutationLaw checks that gap-drawn mutation keeps the per-gene
// Bernoulli(p) law over 20000 children at J=100, p=0.05: every gene's
// re-roll frequency lies within 4σ of p (genes J−1 and J, the last
// accel and the first priority gene, are checked like every other), and
// the per-child count of re-rolled genes fits Binomial(2J, p) by a χ²
// test at the 0.1% level.
func TestMutationLaw(t *testing.T) {
	const nJobs, nAccels, p, children = 100, 4, 0.05, 20000
	o := mutator(nJobs, nAccels, p)
	g := encoding.Genome{Accel: make([]int, nJobs), Prio: make([]float64, nJobs)}
	st := rng.New(11)
	hit := make([]bool, 2*nJobs)
	perGene := make([]int, 2*nJobs)
	perChild := make([]int, 2*nJobs+1)
	for c := 0; c < children; c++ {
		sentinel(g)
		o.mutate(g, st)
		rerolled(t, g, nAccels, hit)
		k := 0
		for i, h := range hit {
			if h {
				perGene[i]++
				k++
			}
		}
		perChild[k]++
	}

	sigma := math.Sqrt(p * (1 - p) / children)
	for i, c := range perGene {
		if f := float64(c) / children; math.Abs(f-p) > 4*sigma {
			t.Errorf("gene %d re-rolled at rate %.4f, want %.2f ± %.4f (4σ)", i, f, p, 4*sigma)
		}
	}

	// χ² over the count's bins, each tail pooled into one bin that
	// expects at least 5 children.
	n := 2 * nJobs
	lc, _ := math.Lgamma(float64(n + 1))
	expected := make([]float64, n+1)
	for k := range expected {
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		expected[k] = children * math.Exp(lc-lk-lnk+float64(k)*math.Log(p)+float64(n-k)*math.Log1p(-p))
	}
	lo, hi := 0, n
	eLo, oLo := expected[0], float64(perChild[0])
	for eLo < 5 {
		lo++
		eLo, oLo = eLo+expected[lo], oLo+float64(perChild[lo])
	}
	eHi, oHi := expected[n], float64(perChild[n])
	for eHi < 5 {
		hi--
		eHi, oHi = eHi+expected[hi], oHi+float64(perChild[hi])
	}
	chi2 := (oLo-eLo)*(oLo-eLo)/eLo + (oHi-eHi)*(oHi-eHi)/eHi
	for k := lo + 1; k < hi; k++ {
		d := float64(perChild[k]) - expected[k]
		chi2 += d * d / expected[k]
	}
	bins := hi - lo + 1
	df := float64(bins - 1)
	// Wilson–Hilferty approximation of the χ² quantile at 0.999.
	const z = 3.0902
	crit := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if chi2 > crit {
		t.Errorf("per-child re-roll count: χ² = %.1f over %d bins, above the 0.1%% critical value %.1f", chi2, bins, crit)
	}
}

// TestMutationRateOneRerollsEverything: at p ≥ 1 every gene is re-rolled.
func TestMutationRateOneRerollsEverything(t *testing.T) {
	for _, p := range []float64{1, 1.5} {
		o := mutator(30, 4, p)
		g := encoding.Genome{Accel: make([]int, 30), Prio: make([]float64, 30)}
		hit := make([]bool, 60)
		sentinel(g)
		o.mutate(g, rng.New(3))
		rerolled(t, g, 4, hit)
		for i, h := range hit {
			if !h {
				t.Fatalf("p=%g: gene %d was not re-rolled", p, i)
			}
		}
	}
}

// TestMutationTinyGenome: a one-job genome at p=0.01 terminates, keeps
// its genes in range, and re-rolls each of its two genes at about p.
func TestMutationTinyGenome(t *testing.T) {
	const children = 20000
	o := mutator(1, 3, 0.01)
	g := encoding.Genome{Accel: make([]int, 1), Prio: make([]float64, 1)}
	st := rng.New(5)
	hit := make([]bool, 2)
	var count [2]int
	for c := 0; c < children; c++ {
		sentinel(g)
		o.mutate(g, st)
		rerolled(t, g, 3, hit)
		for i, h := range hit {
			if h {
				count[i]++
			}
		}
	}
	sigma := math.Sqrt(0.01 * 0.99 / children)
	for i, c := range count {
		if f := float64(c) / children; math.Abs(f-0.01) > 4*sigma {
			t.Errorf("gene %d re-rolled at rate %.4f, want 0.01 ± %.4f", i, f, 4*sigma)
		}
	}
}

// TestDrawLayoutGolden pins eight children bred through the full
// operator pipeline from fixed parents and a fixed stream. They move
// exactly when some operator's draws change, which changes every seed's
// search: bump DrawLayout and re-derive the golden together.
func TestDrawLayoutGolden(t *testing.T) {
	o := newInited(t, Config{}, 40)
	pop := o.Ask()
	h := fnv.New64a()
	for c := 0; c < 8; c++ {
		child := o.breed(pop[c], pop[c+1])
		for j := range child.Accel {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(child.Accel[j])))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(child.Prio[j])))
		}
	}
	const want = 0xee8e424808f83c15
	if got := h.Sum64(); got != want || DrawLayout != 2 {
		t.Fatalf("bred children hash %#x under DrawLayout %d, want %#x under 2 — only acceptable with a DrawLayout bump",
			got, DrawLayout, uint64(want))
	}
}
