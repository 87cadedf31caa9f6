// Package cmaes implements the Covariance Matrix Adaptation Evolution
// Strategy baseline of Table IV, following Hansen's reference
// (μ/μw, λ)-CMA-ES with rank-one and rank-μ covariance updates,
// cumulative step-size adaptation, and lazy eigen-decomposition (via the
// Jacobi solver in internal/stats). Per Table IV, the elite group is the
// better half of the population (μ = λ/2).
package cmaes

import (
	"math"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/rng"
	"magma/internal/stats"
)

// Config holds CMA-ES hyper-parameters. Zero values select the standard
// defaults for the problem dimension.
type Config struct {
	Lambda int     // population size (default 4+⌊3 ln n⌋, at least 8)
	Sigma0 float64 // initial step size on the unit box (default 0.3)
}

// Optimizer is the CMA-ES search state.
type Optimizer struct {
	cfg     Config
	n       int // dimension = 2 × group size
	nAccels int
	// root is the run's RNG root; Ask derives one stream per
	// (ask-round, candidate) cell, so candidate sampling is independent
	// of evaluation order.
	root rng.Stream
	asks uint64

	lambda, mu int
	weights    []float64
	mueff      float64
	cc, cs     float64
	c1, cmu    float64
	damps      float64
	chiN       float64

	mean               []float64
	sigma              float64
	pc, ps             []float64
	cov                [][]float64 // C
	b                  [][]float64 // eigenvectors (columns)
	d                  []float64   // sqrt eigenvalues
	eigenAge, eigenGap int

	asked [][]float64 // z-space samples of the pending generation
	xs    [][]float64 // x-space samples of the pending generation
	gen   int
}

// New builds a CMA-ES optimizer.
func New(cfg Config) *Optimizer { return &Optimizer{cfg: cfg} }

// Name implements m3e.Optimizer.
func (o *Optimizer) Name() string { return "CMA" }

// Init implements m3e.Optimizer.
func (o *Optimizer) Init(p *m3e.Problem, rng *rng.Stream) error {
	o.n = 2 * p.NumJobs()
	o.nAccels = p.NumAccels()
	o.root = *rng
	o.asks = 0
	n := float64(o.n)

	o.lambda = o.cfg.Lambda
	if o.lambda <= 0 {
		o.lambda = 4 + int(3*math.Log(n))
	}
	if o.lambda < 8 {
		o.lambda = 8
	}
	o.mu = o.lambda / 2
	o.weights = make([]float64, o.mu)
	var wsum float64
	for i := 0; i < o.mu; i++ {
		o.weights[i] = math.Log(float64(o.mu)+0.5) - math.Log(float64(i+1))
		wsum += o.weights[i]
	}
	var w2 float64
	for i := range o.weights {
		o.weights[i] /= wsum
		w2 += o.weights[i] * o.weights[i]
	}
	o.mueff = 1 / w2
	o.cc = (4 + o.mueff/n) / (n + 4 + 2*o.mueff/n)
	o.cs = (o.mueff + 2) / (n + o.mueff + 5)
	o.c1 = 2 / ((n+1.3)*(n+1.3) + o.mueff)
	o.cmu = math.Min(1-o.c1, 2*(o.mueff-2+1/o.mueff)/((n+2)*(n+2)+o.mueff))
	o.damps = 1 + 2*math.Max(0, math.Sqrt((o.mueff-1)/(n+1))-1) + o.cs
	o.chiN = math.Sqrt(n) * (1 - 1/(4*n) + 1/(21*n*n))

	o.sigma = o.cfg.Sigma0
	if o.sigma <= 0 {
		o.sigma = 0.3
	}
	o.mean = make([]float64, o.n)
	for i := range o.mean {
		o.mean[i] = 0.5
	}
	o.pc = make([]float64, o.n)
	o.ps = make([]float64, o.n)
	o.cov = identity(o.n)
	o.b = identity(o.n)
	o.d = ones(o.n)
	o.eigenGap = int(1/(o.c1+o.cmu)/n/10) + 1
	o.eigenAge = 0
	return nil
}

// Ask implements m3e.Optimizer: samples λ candidates x = m + σ·B·(D∘z),
// each from its own (ask-round, candidate) RNG stream.
func (o *Optimizer) Ask() []encoding.Genome {
	o.asks++
	o.asked = make([][]float64, o.lambda)
	o.xs = make([][]float64, o.lambda)
	out := make([]encoding.Genome, o.lambda)
	for k := 0; k < o.lambda; k++ {
		st := o.root.At(o.asks, uint64(k))
		z := make([]float64, o.n)
		for i := range z {
			z[i] = st.NormFloat64()
		}
		// y = B·(D∘z)
		y := make([]float64, o.n)
		for i := 0; i < o.n; i++ {
			var s float64
			for j := 0; j < o.n; j++ {
				s += o.b[i][j] * o.d[j] * z[j]
			}
			y[i] = s
		}
		x := make([]float64, o.n)
		for i := range x {
			x[i] = o.mean[i] + o.sigma*y[i]
		}
		o.asked[k] = y
		o.xs[k] = x
		g, err := encoding.FromVector(x, o.nAccels)
		if err != nil {
			m3e.AbortRun(err) // cannot happen: vectors are even-length by construction
		}
		out[k] = g
	}
	return out
}

// Tell implements m3e.Optimizer: the standard CMA-ES update.
func (o *Optimizer) Tell(_ []encoding.Genome, fitness []float64) {
	idx := argsortDesc(fitness)
	// New mean from the μ best.
	yw := make([]float64, o.n)
	for i := range o.mean {
		o.mean[i] = 0
	}
	for r := 0; r < o.mu && r < len(idx); r++ {
		k := idx[r]
		w := o.weights[r]
		for i := 0; i < o.n; i++ {
			o.mean[i] += w * o.xs[k][i]
			yw[i] += w * o.asked[k][i]
		}
	}
	// Evolution path for sigma: ps = (1-cs)·ps + sqrt(cs(2-cs)·mueff)·C^{-1/2}·yw,
	// where C^{-1/2}·yw = B·D^{-1}·Bᵀ·yw.
	bty := make([]float64, o.n)
	for j := 0; j < o.n; j++ {
		var s float64
		for i := 0; i < o.n; i++ {
			s += o.b[i][j] * yw[i]
		}
		bty[j] = s / o.d[j]
	}
	cInvHalfY := make([]float64, o.n)
	for i := 0; i < o.n; i++ {
		var s float64
		for j := 0; j < o.n; j++ {
			s += o.b[i][j] * bty[j]
		}
		cInvHalfY[i] = s
	}
	csf := math.Sqrt(o.cs * (2 - o.cs) * o.mueff)
	var psNorm float64
	for i := 0; i < o.n; i++ {
		o.ps[i] = (1-o.cs)*o.ps[i] + csf*cInvHalfY[i]
		psNorm += o.ps[i] * o.ps[i]
	}
	psNorm = math.Sqrt(psNorm)

	// Heaviside stall indicator.
	hsig := 0.0
	denom := math.Sqrt(1 - math.Pow(1-o.cs, 2*float64(o.gen+1)))
	if psNorm/denom/o.chiN < 1.4+2/(float64(o.n)+1) {
		hsig = 1
	}
	ccf := math.Sqrt(o.cc * (2 - o.cc) * o.mueff)
	for i := 0; i < o.n; i++ {
		o.pc[i] = (1-o.cc)*o.pc[i] + hsig*ccf*yw[i]
	}

	// Covariance update: rank-one + rank-μ.
	c1a := o.c1 * (1 - (1-hsig*hsig)*o.cc*(2-o.cc))
	for i := 0; i < o.n; i++ {
		for j := 0; j <= i; j++ {
			v := (1-c1a-o.cmu)*o.cov[i][j] + o.c1*o.pc[i]*o.pc[j]
			for r := 0; r < o.mu && r < len(idx); r++ {
				y := o.asked[idx[r]]
				v += o.cmu * o.weights[r] * y[i] * y[j]
			}
			o.cov[i][j] = v
			o.cov[j][i] = v
		}
	}

	// Step-size update.
	o.sigma *= math.Exp((o.cs / o.damps) * (psNorm/o.chiN - 1))
	if o.sigma > 1 {
		o.sigma = 1 // the box is the unit cube; bigger steps are wasted
	}
	if o.sigma < 1e-8 {
		o.sigma = 1e-8
	}

	o.gen++
	o.eigenAge++
	if o.eigenAge >= o.eigenGap {
		o.eigenAge = 0
		o.updateEigen()
	}
}

func (o *Optimizer) updateEigen() {
	vals, vecs, err := stats.SymEigen(o.cov)
	if err != nil {
		return
	}
	o.b = vecs
	for i, v := range vals {
		if v < 1e-20 {
			v = 1e-20
		}
		o.d[i] = math.Sqrt(v)
	}
}

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func argsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	// insertion sort: λ is small
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && xs[idx[j]] > xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

var _ m3e.Optimizer = (*Optimizer)(nil)
