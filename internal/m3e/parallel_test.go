package m3e_test

import (
	"math/rand"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/platform"
	"magma/internal/workload"
)

func parallelProblem(t testing.TB) *m3e.Problem {
	t.Helper()
	w, err := workload.Generate(workload.Config{NumJobs: 16, GroupSize: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := m3e.NewProblem(w.Groups[0], platform.S2().WithBW(8), m3e.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// TestPoolScoresInvalidGenomes checks the pool mirrors the one-shot
// rule: constraint-violating samples score -Inf at their batch index.
func TestPoolScoresInvalidGenomes(t *testing.T) {
	prob := parallelProblem(t)
	r := rand.New(rand.NewSource(3))
	batch := make([]encoding.Genome, 6)
	for i := range batch {
		batch[i] = encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	}
	batch[2] = encoding.Genome{Accel: []int{0}, Prio: []float64{0.5}} // wrong size
	fit := make([]float64, len(batch))
	m3e.NewPool(prob).Evaluate(batch, fit)
	for i, f := range fit {
		if i == 2 {
			if !isNegInf(f) {
				t.Errorf("invalid genome scored %v, want -Inf", f)
			}
			continue
		}
		want, err := prob.Evaluate(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if f != want {
			t.Errorf("fit[%d] = %v, want %v", i, f, want)
		}
	}
}

func isNegInf(f float64) bool { return f < 0 && f*2 == f }

// TestEvaluatorMatchesProblemEvaluate checks the scratch-reusing
// evaluator computes exactly what the allocating path computes.
func TestEvaluatorMatchesProblemEvaluate(t *testing.T) {
	prob := parallelProblem(t)
	ev := prob.NewEvaluator()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
		got, err := ev.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prob.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: evaluator %v != fresh %v", i, got, want)
		}
	}
}

// TestEvaluatorZeroAlloc asserts the genome→fitness hot path — decode,
// simulate, score — stops allocating once its scratch is warm.
func TestEvaluatorZeroAlloc(t *testing.T) {
	prob := parallelProblem(t)
	ev := prob.NewEvaluator()
	g := encoding.Random(prob.NumJobs(), prob.NumAccels(), rand.New(rand.NewSource(8)))
	if _, err := ev.Evaluate(g); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ev.Evaluate(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Evaluate allocates %.1f times, want <= 2", allocs)
	}
}
