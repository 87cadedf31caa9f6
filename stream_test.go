package magma

import (
	"strings"
	"testing"
)

func TestOptimizeStream(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 48, GroupSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeStream(wl, PlatformS2(), StreamOptions{
		BudgetPerGroup: 100, Seed: 1, WarmStart: true,
	})
	if err != nil {
		t.Fatalf("OptimizeStream: %v", err)
	}
	if len(res.Schedules) != len(wl.Groups) {
		t.Errorf("schedules = %d, want %d", len(res.Schedules), len(wl.Groups))
	}
	if res.ThroughputGFLOPs <= 0 || res.TotalSeconds <= 0 || res.TotalGFLOPs <= 0 {
		t.Errorf("degenerate stream result: %+v", res)
	}
	// Aggregate consistency: throughput = work / time.
	if got := res.TotalGFLOPs / res.TotalSeconds; got != res.ThroughputGFLOPs {
		t.Errorf("throughput %g != work/time %g", res.ThroughputGFLOPs, got)
	}
}

// TestOptimizeStreamValidOptionsRunEveryGroup: StreamOptions that pass
// Validate must pass every group's validation too (a stream-level
// option once reached each group's Options and failed group 0). A
// cached stream on a Solver equals an uncached private one.
func TestOptimizeStreamValidOptionsRunEveryGroup(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 32, GroupSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{BudgetPerGroup: 100, Seed: 1, Solver: NewSolver(SolverOptions{}), Cache: true}
	if err := opts.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := OptimizeStream(wl, PlatformS2(), opts)
	if err != nil {
		t.Fatalf("OptimizeStream: %v", err)
	}
	want, err := OptimizeStream(wl, PlatformS2(), StreamOptions{BudgetPerGroup: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schedules) != len(wl.Groups) || got.ThroughputGFLOPs != want.ThroughputGFLOPs {
		t.Errorf("stream scheduled %d of %d groups at %v GFLOP/s, want all at %v",
			len(got.Schedules), len(wl.Groups), got.ThroughputGFLOPs, want.ThroughputGFLOPs)
	}
}

func TestOptimizeStreamHeuristic(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Vision, NumJobs: 32, GroupSize: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeStream(wl, PlatformS1(), StreamOptions{Mapper: "Herald-like"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Schedules {
		if s.Mapper != "Herald-like" {
			t.Errorf("mapper = %s", s.Mapper)
		}
	}
}

func TestOptimizeStreamEmpty(t *testing.T) {
	if _, err := OptimizeStream(Workload{}, PlatformS1(), StreamOptions{}); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestOptimizeStreamBudgetFloor pins the per-group floor: the budget is
// at least 20 generations (20 × group size samples), overriding a
// smaller explicit BudgetPerGroup; an explicit budget above the floor
// is honored exactly. Curve covers one point per consumed sample, so
// its Len is the consumed budget.
func TestOptimizeStreamBudgetFloor(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Mix, NumJobs: 32, GroupSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		perGroup, want int
	}{
		{10, 20 * 16},  // under the floor: floored to 20 generations
		{319, 20 * 16}, // one below the floor: still floored
		{500, 500},     // above the floor: honored exactly
	} {
		res, err := OptimizeStream(wl, PlatformS2(), StreamOptions{BudgetPerGroup: tc.perGroup, Seed: 1})
		if err != nil {
			t.Fatalf("BudgetPerGroup=%d: %v", tc.perGroup, err)
		}
		for gi, s := range res.Schedules {
			if s.Curve.Len() != tc.want {
				t.Errorf("BudgetPerGroup=%d group %d: consumed %d samples, want %d",
					tc.perGroup, gi, s.Curve.Len(), tc.want)
			}
		}
	}
}

// TestOptimizeStreamGroupFailure: a failing group must abort the stream
// cleanly — a zero StreamResult and an error naming the group index and
// its task/shape context.
func TestOptimizeStreamGroupFailure(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Vision, NumJobs: 32, GroupSize: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the second group below the S2 core count: its problem
	// build fails (§III requires group size >= sub-accelerators).
	bad := Workload{Name: wl.Name, Task: wl.Task, Groups: []Group{
		wl.Groups[0],
		{Index: 1, Jobs: wl.Groups[1].Jobs[:2]},
	}}
	res, err := OptimizeStream(bad, PlatformS2(), StreamOptions{BudgetPerGroup: 64, Seed: 1})
	if err == nil {
		t.Fatal("stream with an unschedulable group succeeded")
	}
	if len(res.Schedules) != 0 || res.ThroughputGFLOPs != 0 {
		t.Errorf("failed stream returned partial result: %+v", res)
	}
	for _, want := range []string{"group 1 of 2", "task Vision", "2 jobs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks context %q", err, want)
		}
	}
}

func TestTune(t *testing.T) {
	g := testGroup(t, Mix, 16)
	best, score, err := Tune(g, PlatformS2(), 64, 8, 1)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if len(best) != 5 {
		t.Fatalf("best = %v, want 5 params", best)
	}
	if score <= 0 {
		t.Errorf("score = %g", score)
	}
	// Parameters must respect the documented space bounds.
	bounds := [][2]float64{{0.01, 0.3}, {0.3, 1.0}, {0.01, 0.3}, {0.01, 0.3}, {0.05, 0.5}}
	for i, b := range bounds {
		if best[i] < b[0] || best[i] > b[1] {
			t.Errorf("param %d = %g outside [%g,%g]", i, best[i], b[0], b[1])
		}
	}
}
