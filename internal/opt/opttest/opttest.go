// Package opttest provides the shared test battery for optimization
// algorithms: every mapper must drive a small search, respect the
// sampling budget with a canonical convergence curve, behave
// deterministically under a fixed seed, and clearly beat the average
// random sample (i.e. actually optimize).
package opttest

import (
	"math"
	"math/rand"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/workload"
)

// Problem builds a small, deterministic test problem.
func Problem(t testing.TB, task models.Task, nJobs int, p platform.Platform) *m3e.Problem {
	t.Helper()
	w, err := workload.Generate(workload.Config{Task: task, NumJobs: nJobs, GroupSize: nJobs, Seed: 31})
	if err != nil {
		t.Fatalf("opttest: generate workload: %v", err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], p, m3e.Throughput)
	if err != nil {
		t.Fatalf("opttest: build problem: %v", err)
	}
	return prob
}

// RandomMean estimates the mean fitness of uniform random mappings.
func RandomMean(t testing.TB, prob *m3e.Problem, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		g := encoding.Random(prob.NumJobs(), prob.NumAccels(), rng)
		f, err := prob.Evaluate(g)
		if err != nil {
			t.Fatalf("opttest: evaluate random: %v", err)
		}
		sum += f
	}
	return sum / float64(n)
}

// checkCurve requires res.Curve to be canonical: it covers every
// consumed sample, no run is empty, no two adjacent runs hold values
// with equal bits, and the last run's value is the best fitness.
func checkCurve(t *testing.T, res m3e.Result) {
	t.Helper()
	c := res.Curve
	if n := c.Len(); n != res.Samples {
		t.Errorf("curve covers %d samples, want %d", n, res.Samples)
	}
	for i, r := range c {
		if r.N <= 0 {
			t.Errorf("curve run %d of %d samples", i, r.N)
		}
		if i > 0 && math.Float64bits(r.V) == math.Float64bits(c[i-1].V) {
			t.Errorf("curve runs %d and %d both hold %v", i-1, i, r.V)
		}
	}
	if len(c) == 0 || math.Float64bits(c[len(c)-1].V) != math.Float64bits(res.BestFitness) {
		t.Errorf("curve %v does not end at the best fitness %v", c, res.BestFitness)
	}
}

// Battery runs the standard conformance checks against an optimizer
// constructor. improvementFactor is the required ratio of the found
// best to the random mean (1.0 = must at least match random).
func Battery(t *testing.T, mk func() m3e.Optimizer, budget int, improvementFactor float64) {
	t.Helper()
	prob := Problem(t, models.Mix, 24, platform.S2())

	t.Run("BudgetExact", func(t *testing.T) {
		res, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 1)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Samples != budget {
			t.Errorf("samples = %d, want %d", res.Samples, budget)
		}
		checkCurve(t, res)
		if err := res.Best.Validate(prob.NumJobs(), prob.NumAccels()); err != nil {
			t.Errorf("best genome invalid: %v", err)
		}
	})

	t.Run("Deterministic", func(t *testing.T) {
		a, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.BestFitness != b.BestFitness {
			t.Errorf("same seed, different best: %g vs %g", a.BestFitness, b.BestFitness)
		}
	})

	t.Run("BeatsRandomMean", func(t *testing.T) {
		randomMean := RandomMean(t, prob, 50, 99)
		res, err := m3e.Run(prob, mk(), m3e.Options{Budget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness < randomMean*improvementFactor {
			t.Errorf("best %g below %gx random mean %g", res.BestFitness, improvementFactor, randomMean)
		}
	})
}
