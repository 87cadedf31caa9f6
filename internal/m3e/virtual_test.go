package m3e_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"magma/internal/encoding"
	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/sim"
	"magma/internal/workload"
)

// TestVirtualBracketHoldsFitness lifts sim.Bounds.Virtual's bracket to
// the fitness the pruning pass compares: for random genomes on two
// platforms and under every objective, the Problem.Fitness of Virtual's
// pessimistic Result is at most, and of its optimistic Result at least,
// the fitness of the simulation.
func TestVirtualBracketHoldsFitness(t *testing.T) {
	w, err := workload.Generate(workload.Config{NumJobs: 40, GroupSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	var vs sim.VirtualScratch
	for _, pf := range []platform.Platform{platform.S2().WithBW(4), platform.S4().WithBW(64)} {
		for obj := m3e.Throughput; obj <= m3e.EDP; obj++ {
			prob, err := m3e.NewProblem(w.Groups[0], pf, obj)
			if err != nil {
				t.Fatal(err)
			}
			b := sim.NewBounds(prob.Table)
			for trial := 0; trial < 30; trial++ {
				m := encoding.Decode(encoding.Random(prob.NumJobs(), prob.NumAccels(), r), prob.NumAccels())
				best, worst, ok := b.Virtual(&vs, &m)
				if !ok {
					t.Fatalf("%s: no virtual makespan on a shipped table", pf.Setting)
				}
				exact, _, err := prob.EvaluateMapping(m)
				if err != nil {
					t.Fatal(err)
				}
				if lo, hi := prob.Fitness(worst), prob.Fitness(best); !(lo <= exact && exact <= hi) {
					t.Fatalf("%s %s trial %d: fitness %g outside the bracket [%g, %g]", pf.Setting, obj, trial, exact, lo, hi)
				}
			}
		}
	}
}

// TestVirtualStageSettles checks the second pruning stage fires on a
// pruned search under every objective without moving the result, and
// that its counters nest: VirtualPruned ≤ BoundPruned, and every priced
// genome is either settled or simulated.
func TestVirtualStageSettles(t *testing.T) {
	shared := evaluatorProblem(t)
	const budget = 1000
	for obj := m3e.Throughput; obj <= m3e.EDP; obj++ {
		prob := &m3e.Problem{Table: shared.Table, Objective: obj, Group: shared.Group, Platform: shared.Platform}
		base, err := m3e.Run(prob, unpruned{optmagma.New(optmagma.Config{})}, m3e.Options{Budget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		label := obj.String()
		got, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), m3e.Options{Budget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.BestFitness != base.BestFitness || !reflect.DeepEqual(got.Curve, base.Curve) || !reflect.DeepEqual(got.Best, base.Best) {
			t.Fatalf("%s: result differs from the unpruned run", label)
		}
		st := got.Cache
		checkCounters(t, label, st, got.Asked)
		if st.VirtualPriced == 0 || st.VirtualPruned == 0 {
			t.Errorf("%s: virtual stage idle: %+v", label, st)
		}
		if st.VirtualPruned > st.BoundPruned {
			t.Errorf("%s: VirtualPruned %d exceeds BoundPruned %d", label, st.VirtualPruned, st.BoundPruned)
		}
		if st.VirtualPriced > st.Misses-(st.BoundPruned-st.VirtualPruned) {
			t.Errorf("%s: priced %d genomes, more than the %d that passed the roofline", label, st.VirtualPriced, st.Misses-(st.BoundPruned-st.VirtualPruned))
		}
	}
}

// TestBracketMissFailsLoudly feeds the check a bracket that sits just
// above every priced genome's true fitness: the first simulated genome
// misses it, and Run must return an error naming the batch index
// instead of pruning on a wrong bracket.
func TestBracketMissFailsLoudly(t *testing.T) {
	prob := evaluatorProblem(t)
	above := func(lo, hi float64) (float64, float64) {
		v := hi + math.Abs(hi)*1e-3 + 1
		return v, v
	}
	o := m3e.WithBrackets(m3e.Options{Budget: 1000}, above)
	_, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), o, 3)
	if err == nil || !strings.Contains(err.Error(), "batch index") || !strings.Contains(err.Error(), "bracket") {
		t.Errorf("narrowed bracket gave error %v, want a bracket miss naming the batch index", err)
	}
	// The identity hook changes nothing.
	o = m3e.WithBrackets(m3e.Options{Budget: 1000}, func(lo, hi float64) (float64, float64) { return lo, hi })
	if _, err := m3e.Run(prob, optmagma.New(optmagma.Config{}), o, 3); err != nil {
		t.Errorf("identity bracket hook: %v", err)
	}
}
