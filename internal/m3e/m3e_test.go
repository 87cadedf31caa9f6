package m3e

import (
	"magma/internal/rng"
	"math"
	"testing"

	"magma/internal/encoding"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/sim"
	"magma/internal/workload"
)

// stubOpt is a minimal random-search optimizer used to exercise the
// runner without depending on the real algorithm packages.
type stubOpt struct {
	p     *Problem
	rng   *rng.Stream
	batch int
	tells int
	told  int
}

func (s *stubOpt) Name() string { return "stub" }
func (s *stubOpt) Init(p *Problem, rng *rng.Stream) error {
	s.p, s.rng = p, rng
	if s.batch == 0 {
		s.batch = 7
	}
	return nil
}
func (s *stubOpt) Ask() []encoding.Genome {
	out := make([]encoding.Genome, s.batch)
	for i := range out {
		out[i] = encoding.Random(s.p.NumJobs(), s.p.NumAccels(), s.rng)
	}
	return out
}
func (s *stubOpt) Tell(gs []encoding.Genome, fit []float64) {
	s.tells++
	s.told += len(fit)
	if len(gs) != len(fit) {
		panic("mismatched Tell")
	}
}

func testProblem(t testing.TB, task models.Task, n int, p platform.Platform, obj Objective) *Problem {
	t.Helper()
	w, err := workload.Generate(workload.Config{Task: task, NumJobs: n, GroupSize: n, Seed: 23})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prob, err := NewProblem(w.Groups[0], p, obj)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return prob
}

func TestNewProblemRejectsTinyGroups(t *testing.T) {
	w, err := workload.Generate(workload.Config{Task: models.Vision, NumJobs: 2, GroupSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(w.Groups[0], platform.S1(), Throughput); err == nil {
		t.Error("group smaller than accel count accepted")
	}
}

func TestEvaluateObjectives(t *testing.T) {
	prob := testProblem(t, models.Mix, 20, platform.S2(), Throughput)
	r := rng.New(4)
	g := encoding.Random(prob.NumJobs(), prob.NumAccels(), r)
	res, err := sim.Run(prob.Table, encoding.Decode(g, prob.NumAccels()), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		obj  Objective
		want float64
	}{
		{Throughput, res.ThroughputGFLOPs},
		{Latency, -res.TotalCycles},
		{Energy, -res.Energy},
		{EDP, -res.Energy * res.Seconds},
	}
	for _, c := range cases {
		prob.Objective = c.obj
		got, err := prob.Evaluate(g)
		if err != nil {
			t.Fatalf("%v: %v", c.obj, err)
		}
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%v fitness = %g, want %g", c.obj, got, c.want)
		}
	}
}

func TestEvaluateRejectsInvalidGenome(t *testing.T) {
	prob := testProblem(t, models.Vision, 10, platform.S1(), Throughput)
	bad := encoding.Genome{Accel: []int{9}, Prio: []float64{0.5}}
	if _, err := prob.Evaluate(bad); err == nil {
		t.Error("invalid genome accepted")
	}
}

func TestRunConsumesExactBudget(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	opt := &stubOpt{batch: 5}
	res, err := Run(prob, opt, Options{Budget: 23}, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Samples != 23 {
		t.Errorf("Samples = %d, want 23", res.Samples)
	}
	if len(res.Curve) != 23 {
		t.Errorf("curve length = %d, want 23", len(res.Curve))
	}
	if opt.told != 23 {
		t.Errorf("Tell saw %d evaluations, want 23", opt.told)
	}
	if res.Method != "stub" {
		t.Errorf("Method = %q", res.Method)
	}
}

func TestRunCurveMonotone(t *testing.T) {
	prob := testProblem(t, models.Mix, 16, platform.S2(), Throughput)
	res, err := Run(prob, &stubOpt{}, Options{Budget: 60}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] < res.Curve[i-1] {
			t.Fatalf("best-so-far decreased at %d: %g -> %g", i, res.Curve[i-1], res.Curve[i])
		}
	}
	if res.BestFitness != res.Curve[len(res.Curve)-1] {
		t.Error("BestFitness disagrees with curve tail")
	}
	if err := res.Best.Validate(prob.NumJobs(), prob.NumAccels()); err != nil {
		t.Errorf("best genome invalid: %v", err)
	}
}

func TestRunRecordsSamples(t *testing.T) {
	prob := testProblem(t, models.Vision, 10, platform.S1(), Throughput)
	res, err := Run(prob, &stubOpt{}, Options{Budget: 15, RecordSamples: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explored) != 15 {
		t.Errorf("Explored = %d vectors, want 15", len(res.Explored))
	}
	for _, v := range res.Explored {
		if len(v) != 2*prob.NumJobs() {
			t.Fatalf("vector length %d, want %d", len(v), 2*prob.NumJobs())
		}
	}
}

func TestEvaluateMapping(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	m := sim.Mapping{Queues: make([][]int, 4)}
	for j := 0; j < 12; j++ {
		m.Queues[j%4] = append(m.Queues[j%4], j)
	}
	fit, res, err := prob.EvaluateMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	if fit != res.ThroughputGFLOPs {
		t.Errorf("fitness %g != throughput %g", fit, res.ThroughputGFLOPs)
	}
	if _, _, err := prob.EvaluateMapping(sim.Mapping{}); err == nil {
		t.Error("empty mapping accepted")
	}
}

func TestBestMapping(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	res, err := Run(prob, &stubOpt{}, Options{Budget: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := res.BestMapping(prob.NumAccels())
	if err := m.Validate(prob.NumJobs(), prob.NumAccels()); err != nil {
		t.Errorf("best mapping invalid: %v", err)
	}
}

func TestObjectiveStrings(t *testing.T) {
	for _, o := range []Objective{Throughput, Latency, Energy, EDP} {
		if o.String() == "" {
			t.Errorf("empty name for %d", o)
		}
	}
}

func TestCacheStatsAddIncludesCrossHits(t *testing.T) {
	a := CacheStats{Hits: 2, CrossHits: 1, Deduped: 3, Misses: 4, Invalid: 5}
	b := CacheStats{Hits: 10, CrossHits: 10, Deduped: 10, Misses: 10, Invalid: 10}
	b.Add(a)
	want := CacheStats{Hits: 12, CrossHits: 11, Deduped: 13, Misses: 14, Invalid: 15}
	if b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
}
