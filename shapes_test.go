package magma

// End-to-end reproduction checks: each test asserts one of the paper's
// qualitative claims through the public API at a small scale. These are
// the "shape" claims cmd/experiments prints at full scale as its
// "note: paper shape:" lines.

import (
	"testing"

	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
)

// optimizeMutationOnly runs the Fig. 16 mutation-only MAGMA ablation.
func optimizeMutationOnly(g Group, p Platform, budget int, seed int64) (float64, error) {
	prob, err := m3e.NewProblem(g, p, Throughput)
	if err != nil {
		return 0, err
	}
	opt := optmagma.New(optmagma.Config{
		DisableCrossoverGen:   true,
		DisableCrossoverRG:    true,
		DisableCrossoverAccel: true,
	})
	res, err := m3e.Run(prob, opt, m3e.Options{Budget: budget}, seed)
	if err != nil {
		return 0, err
	}
	return res.BestFitness, nil
}

// §VI-E / Fig. 9: the homogeneous-minded AI-MT-like mapper collapses on
// heterogeneous platforms by an order of magnitude.
func TestShapeAIMTCollapsesOnHetero(t *testing.T) {
	g := testGroup(t, Mix, 40)
	pf := PlatformS2().WithBW(16)
	herald, err := Optimize(g, pf, Options{Mapper: "Herald-like"})
	if err != nil {
		t.Fatal(err)
	}
	aimt, err := Optimize(g, pf, Options{Mapper: "AI-MT-like"})
	if err != nil {
		t.Fatal(err)
	}
	if herald.ThroughputGFLOPs < 5*aimt.ThroughputGFLOPs {
		t.Errorf("AI-MT %g vs Herald %g GFLOPs: collapse factor %.1fx, want >= 5x",
			aimt.ThroughputGFLOPs, herald.ThroughputGFLOPs,
			herald.ThroughputGFLOPs/aimt.ThroughputGFLOPs)
	}
}

// Fig. 8/9: both heuristics stay within a factor ~2 of each other on a
// homogeneous platform — the collapse is heterogeneity-specific.
func TestShapeHeuristicsParityOnHomogeneous(t *testing.T) {
	g := testGroup(t, Mix, 40)
	pf := PlatformS1().WithBW(16)
	herald, err := Optimize(g, pf, Options{Mapper: "Herald-like"})
	if err != nil {
		t.Fatal(err)
	}
	aimt, err := Optimize(g, pf, Options{Mapper: "AI-MT-like"})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := herald.ThroughputGFLOPs, aimt.ThroughputGFLOPs
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 2.5*lo {
		t.Errorf("homogeneous heuristic gap %.1fx, want < 2.5x", hi/lo)
	}
}

// §VI: MAGMA improves substantially over its own initial random
// population within the sampling budget (the sample-efficiency claim).
// Averaged over seeds: individual groups vary in headroom.
func TestShapeMAGMAImprovesOverInit(t *testing.T) {
	g := testGroup(t, Mix, 64)
	var ratio float64
	for seed := int64(1); seed <= 3; seed++ {
		s, err := Optimize(g, PlatformS2().WithBW(16), Options{Budget: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		initBest := s.Curve.At(len(g.Jobs) - 1) // best of the initial population
		ratio += s.Fitness / initBest
	}
	ratio /= 3
	if ratio < 1.3 {
		t.Errorf("mean MAGMA improvement over init = %.2fx, want >= 1.3x", ratio)
	}
}

// Fig. 16: crossover-gen is the dominant operator — MAGMA with all
// operators must not lose to a mutation-only configuration at equal
// budget (averaged over seeds).
func TestShapeOperatorsHelp(t *testing.T) {
	g := testGroup(t, Vision, 32)
	pf := PlatformS2().WithBW(16)
	var full, mutOnly float64
	for seed := int64(1); seed <= 3; seed++ {
		s, err := Optimize(g, pf, Options{Budget: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		full += s.Fitness
		m, err := optimizeMutationOnly(g, pf, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		mutOnly += m
	}
	if full < 0.95*mutOnly {
		t.Errorf("full-operator MAGMA %g below mutation-only %g", full/3, mutOnly/3)
	}
}

// Fig. 14: the flexible PE array never loses to the fixed one.
func TestShapeFlexibleNeverLoses(t *testing.T) {
	g := testGroup(t, Mix, 32)
	fixed := PlatformS1().WithBW(16)
	flex := fixed.WithFlexible()
	sf, err := Optimize(g, fixed, Options{Budget: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Optimize(g, flex, Options{Budget: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sx.ThroughputGFLOPs < 0.98*sf.ThroughputGFLOPs {
		t.Errorf("flexible %g lost to fixed %g", sx.ThroughputGFLOPs, sf.ThroughputGFLOPs)
	}
}

// §V-C / Table V: a warm-started single-generation search matches or
// beats a cold one on a fresh group of the same task type.
func TestShapeWarmStartTransfers(t *testing.T) {
	pf := PlatformS2().WithBW(16)
	mk := func(seed int64) Group {
		wl, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 32, GroupSize: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return wl.Groups[0]
	}
	solved, err := Optimize(mk(50), pf, Options{Budget: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := NewWarmStore(0)
	store.Record(Mix, solved)

	var coldSum, warmSum float64
	for seed := int64(51); seed <= 53; seed++ {
		g := mk(seed)
		cold, err := Optimize(g, pf, Options{Budget: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Optimize(g, pf, Options{Budget: 64, Seed: seed, WarmStart: store.Seeds(Mix, 32)})
		if err != nil {
			t.Fatal(err)
		}
		coldSum += cold.Fitness
		warmSum += warm.Fitness
	}
	if warmSum < 0.98*coldSum {
		t.Errorf("warm-started short runs %g below cold %g", warmSum/3, coldSum/3)
	}
}

// Fig. 17: tiny groups throttle throughput relative to healthy ones on
// the same job stream.
func TestShapeTinyGroupsUnderPerform(t *testing.T) {
	pf := PlatformS2().WithBW(16)
	wlBig, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 96, GroupSize: 48, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	wlTiny := Workload{Name: "tiny", Task: Mix}
	var jobs []Job
	for _, g := range wlBig.Groups {
		jobs = append(jobs, g.Jobs...)
	}
	for start := 0; start+4 <= len(jobs); start += 4 {
		g := Group{Index: len(wlTiny.Groups)}
		for i, j := range jobs[start : start+4] {
			j.ID = i
			g.Jobs = append(g.Jobs, j)
		}
		wlTiny.Groups = append(wlTiny.Groups, g)
	}
	big, err := OptimizeStream(wlBig, pf, StreamOptions{BudgetPerGroup: 960, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := OptimizeStream(wlTiny, pf, StreamOptions{BudgetPerGroup: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.ThroughputGFLOPs > big.ThroughputGFLOPs {
		t.Errorf("size-4 groups (%g) beat size-48 groups (%g)", tiny.ThroughputGFLOPs, big.ThroughputGFLOPs)
	}
}
