package magma

import (
	"math/rand"
	"testing"

	"magma/internal/models"
	"magma/internal/opt/opttest"
	"magma/internal/platform"
	"magma/internal/rng"
)

// benchOptimizer is an initialized default-configured MAGMA optimizer
// for a 100-job Mix group on S2, the paper's operating point (§VI-B).
func benchOptimizer(b *testing.B) *Optimizer {
	b.Helper()
	o := New(Config{})
	if err := o.Init(opttest.Problem(b, models.Mix, 100, platform.S2()), rng.New(5)); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkMutate times the mutation operator on one 100-job child at
// the paper's rate of 0.05.
func BenchmarkMutate(b *testing.B) {
	o := benchOptimizer(b)
	g := o.Ask()[0].Clone()
	st := rng.New(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.mutate(g, st)
	}
}

// BenchmarkTell times one serial selection and breeding step: a
// population of 100 individuals of 100 jobs, ranked and bred through
// the full operator pipeline of Fig. 6.
func BenchmarkTell(b *testing.B) {
	o := benchOptimizer(b)
	r := rand.New(rand.NewSource(7))
	fit := make([]float64, o.cfg.Population)
	for i := range fit {
		fit[i] = r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop := o.Ask()
		o.Tell(pop, fit[:len(pop)])
	}
}
