package magma

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// --- cancellation -----------------------------------------------------

// TestCancellationDeterminism pins the abort contract: a run cancelled
// at generation k returns exactly the best-so-far state a full run's
// curve shows after the same number of samples, with the cache on or
// off.
func TestCancellationDeterminism(t *testing.T) {
	g := testGroup(t, Mix, 16)
	pf := PlatformS2()
	const budget = 320 // 20 generations at population 16
	const abortAt = 7  // cancel once generation 7 completed

	for _, cache := range []bool{false, true} {
		opts := Options{Budget: budget, Seed: 3, Cache: cache}

		// Full run, recording the cumulative samples at generation k.
		samplesAtK := 0
		full := opts
		full.Progress = func(p Progress) {
			if p.Generation == abortAt {
				samplesAtK = p.Samples
			}
		}
		want, err := Optimize(g, pf, full)
		if err != nil {
			t.Fatalf("full Optimize(cache=%v): %v", cache, err)
		}
		if samplesAtK == 0 {
			t.Fatalf("observer never saw generation %d", abortAt)
		}

		// Aborted run: cancel from the generation-k progress callback.
		ctx, cancel := context.WithCancel(context.Background())
		part := opts
		part.Progress = func(p Progress) {
			if p.Generation == abortAt {
				cancel()
			}
		}
		got, err := OptimizeCtx(ctx, g, pf, part)
		cancel()
		if err != nil {
			t.Fatalf("aborted Optimize(cache=%v): %v", cache, err)
		}
		if !got.Partial {
			t.Fatalf("cache=%v: aborted schedule not marked Partial", cache)
		}
		if got.Samples != samplesAtK {
			t.Errorf("cache=%v: aborted at %d samples, want %d", cache, got.Samples, samplesAtK)
		}
		if got.Fitness != want.Curve.At(samplesAtK-1) {
			t.Errorf("cache=%v: aborted best %v != full curve at k %v",
				cache, got.Fitness, want.Curve.At(samplesAtK-1))
		}
		if got.Curve.Len() != samplesAtK {
			t.Fatalf("cache=%v: aborted curve %d samples, want %d", cache, got.Curve.Len(), samplesAtK)
		}
		for i := range samplesAtK {
			if v := got.Curve.At(i); v != want.Curve.At(i) {
				t.Fatalf("cache=%v: curve diverges at sample %d: %v != %v", cache, i, v, want.Curve.At(i))
			}
		}
		if err := got.Mapping.Validate(len(g.Jobs), pf.NumAccels()); err != nil {
			t.Errorf("aborted schedule mapping invalid: %v", err)
		}
	}
}

func TestOptimizeCtxAlreadyDead(t *testing.T) {
	g := testGroup(t, Mix, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OptimizeCtx(ctx, g, PlatformS2(), Options{Budget: 100, Seed: 1})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestCompareCtxCancelKeepsFinishedMappers(t *testing.T) {
	g := testGroup(t, Mix, 16)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	opts := Options{Budget: 20000, Seed: 1, Progress: func(p Progress) {
		// Let every mapper get some generations in before cancelling
		// (mappers still waiting for a CPU are dropped — the leaderboard
		// keeps whoever produced samples).
		if p.Generation >= 3 {
			once.Do(cancel)
		}
	}}
	defer cancel()
	res, err := CompareCtx(ctx, g, PlatformS2(), []string{"MAGMA", "stdGA", "Random"}, opts)
	if err != nil {
		t.Fatalf("CompareCtx: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("CompareCtx returned no schedules despite completed generations")
	}
	partials := 0
	for _, s := range res {
		if s.Partial {
			partials++
		}
	}
	if partials == 0 {
		t.Error("no schedule marked Partial after mid-run cancel")
	}
}

func TestOptimizeStreamCtxCancel(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 64, GroupSize: 16, Seed: 9})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := StreamOptions{BudgetPerGroup: 320, Seed: 1, Progress: func(group int, p Progress) {
		if group == 1 && p.Generation == 2 {
			once.Do(cancel)
		}
	}}
	res, err := OptimizeStreamCtx(ctx, wl, PlatformS2(), opts)
	if err != nil {
		t.Fatalf("OptimizeStreamCtx: %v", err)
	}
	if !res.Partial {
		t.Fatal("stream cancelled mid-group not marked Partial")
	}
	if len(res.Schedules) < 1 || len(res.Schedules) >= len(wl.Groups) {
		t.Fatalf("cancelled stream kept %d of %d groups", len(res.Schedules), len(wl.Groups))
	}
	last := res.Schedules[len(res.Schedules)-1]
	if !last.Partial {
		t.Error("in-flight group's schedule not marked Partial")
	}
	for _, s := range res.Schedules[:len(res.Schedules)-1] {
		if s.Partial {
			t.Error("completed group marked Partial")
		}
	}
}

func TestTuneCtxAbort(t *testing.T) {
	g := testGroup(t, Mix, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	best, _, err := TuneCtx(ctx, g, PlatformS2(), 64, 4, 1)
	if err != context.Canceled {
		t.Fatalf("TuneCtx on dead context: err = %v, want context.Canceled", err)
	}
	if best != nil {
		t.Fatalf("TuneCtx with zero completed trials returned best %v", best)
	}
}

// --- mapper registry --------------------------------------------------

// uniformMapper is a minimal downstream Mapper built purely from the
// public API: uniform random sampling via the exported Genome fields.
type uniformMapper struct {
	n, a int
	rng  *RNG
}

func (u *uniformMapper) Name() string { return "test-uniform" }

func (u *uniformMapper) Init(p *SearchProblem, rng *RNG) error {
	u.n, u.a, u.rng = p.NumJobs(), p.NumAccels(), rng
	return nil
}

func (u *uniformMapper) Ask() []Genome {
	batch := make([]Genome, 8)
	for i := range batch {
		g := Genome{Accel: make([]int, u.n), Prio: make([]float64, u.n)}
		for j := 0; j < u.n; j++ {
			g.Accel[j] = u.rng.Intn(u.a)
			g.Prio[j] = u.rng.Float64()
		}
		batch[i] = g
	}
	return batch
}

func (u *uniformMapper) Tell([]Genome, []float64) {}

var registerUniformOnce sync.Once

func registerUniform(t *testing.T) {
	t.Helper()
	registerUniformOnce.Do(func() {
		if err := Register("test-uniform", func() Mapper { return &uniformMapper{} }); err != nil {
			t.Fatalf("Register: %v", err)
		}
	})
}

func TestRegisterCustomMapper(t *testing.T) {
	registerUniform(t)
	g := testGroup(t, Mix, 16)

	found := false
	for _, name := range MapperNames() {
		if name == "test-uniform" {
			found = true
		}
	}
	if !found {
		t.Fatalf("MapperNames() = %v, missing test-uniform", MapperNames())
	}

	s, err := Optimize(g, PlatformS2(), Options{Mapper: "test-uniform", Budget: 64, Seed: 1})
	if err != nil {
		t.Fatalf("Optimize with registered mapper: %v", err)
	}
	if s.Mapper != "test-uniform" || s.Fitness <= 0 || math.IsInf(s.Fitness, -1) {
		t.Fatalf("registered mapper schedule: %+v", s)
	}

	// The same name works in Compare without any facade edits.
	res, err := Compare(g, PlatformS2(), []string{"Random", "test-uniform"}, Options{Budget: 64, Seed: 1})
	if err != nil {
		t.Fatalf("Compare with registered mapper: %v", err)
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Mapper] = true
	}
	if !names["test-uniform"] {
		t.Fatalf("Compare leaderboard %v missing test-uniform", names)
	}
}

func TestRegisterRejectsDuplicatesAndReserved(t *testing.T) {
	registerUniform(t)
	if err := Register("test-uniform", func() Mapper { return &uniformMapper{} }); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register("MAGMA", func() Mapper { return &uniformMapper{} }); err == nil {
		t.Error("shadowing built-in MAGMA succeeded")
	}
	if err := Register("Herald-like", func() Mapper { return &uniformMapper{} }); err == nil {
		t.Error("shadowing heuristic Herald-like succeeded")
	}
	if err := Register("", func() Mapper { return &uniformMapper{} }); err == nil {
		t.Error("empty-name Register succeeded")
	}
	if err := Register("test-nil", nil); err == nil {
		t.Error("nil-factory Register succeeded")
	}
}

func TestUnknownMapperErrorListsRegistered(t *testing.T) {
	registerUniform(t)
	g := testGroup(t, Mix, 16)
	_, err := Optimize(g, PlatformS2(), Options{Mapper: "nope", Budget: 64, Seed: 1})
	if err == nil {
		t.Fatal("unknown mapper accepted")
	}
	for _, want := range []string{"nope", "MAGMA", "Herald-like", "test-uniform"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-mapper error %q missing %q", err, want)
		}
	}
}

// --- options validation -----------------------------------------------

func TestOptionsValidate(t *testing.T) {
	g := testGroup(t, Mix, 16)
	cases := []struct {
		name string
		opts Options
		want []string // substrings of the single returned error
	}{
		{"negative budget", Options{Budget: -5}, []string{"Budget -5"}},
		{"unknown objective", Options{Objective: Objective(9)}, []string{"Objective 9"}},
		{"everything at once", Options{Mapper: "nope", Budget: -1, Objective: Objective(9)},
			[]string{"nope", "Budget -1", "Objective 9"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Optimize(g, PlatformS2(), tc.opts)
			if err == nil {
				t.Fatalf("Optimize accepted %+v", tc.opts)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
	// The valid zero-ish configurations still pass.
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options invalid: %v", err)
	}
	if err := (Options{Cache: true}).Validate(); err != nil {
		t.Errorf("cache options invalid: %v", err)
	}
	if err := (StreamOptions{BudgetPerGroup: -3}).Validate(); err == nil {
		t.Error("negative BudgetPerGroup accepted")
	}
}
