package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"magma/internal/models"
)

// generateOracle is the generator that Generate replaced, kept as the
// reference it is compared against: it queues every drawn layer as a
// whole Job, shuffles the jobs and appends each kept one to its group.
func generateOracle(cfg Config) (Workload, error) {
	if cfg.NumJobs <= 0 {
		return Workload{}, fmt.Errorf("workload: NumJobs = %d", cfg.NumJobs)
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = DefaultGroupSize
	}
	pool := models.Pool(cfg.Task)
	if len(pool) == 0 {
		return Workload{}, fmt.Errorf("workload: empty model pool for task %v", cfg.Task)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Multi-tenancy means the queued pool always interleaves several
	// concurrent model streams (§III): draw at least minStreams model
	// instances even when few jobs are requested, then sample the group
	// from the shuffled pool.
	const minStreams = 4
	var jobs []Job
	streams := 0
	for len(jobs) < cfg.NumJobs || streams < minStreams {
		m := pool[r.Intn(len(pool))]
		task, err := models.TaskOf(m.Name)
		if err != nil {
			return Workload{}, err
		}
		batch := batchFor(task, r)
		for _, l := range m.Layers {
			jobs = append(jobs, Job{Model: m.Name, Task: task, Layer: l, Batch: batch})
		}
		streams++
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	if len(jobs) > cfg.NumJobs && cfg.NumJobs >= cfg.GroupSize {
		// Trim the shuffled pool to whole groups' worth of jobs, keeping
		// the requested total.
		jobs = jobs[:cfg.NumJobs]
	}

	w := Workload{
		Name: fmt.Sprintf("%s-n%d-g%d-s%d", cfg.Task, cfg.NumJobs, cfg.GroupSize, cfg.Seed),
		Task: cfg.Task,
	}
	for start := 0; start+cfg.GroupSize <= len(jobs); start += cfg.GroupSize {
		g := Group{Index: len(w.Groups)}
		for i, j := range jobs[start : start+cfg.GroupSize] {
			j.ID = i
			g.Jobs = append(g.Jobs, j)
		}
		w.Groups = append(w.Groups, g)
	}
	if len(w.Groups) == 0 { // fewer jobs than one group: keep what we have
		g := Group{Index: 0}
		for i, j := range jobs {
			j.ID = i
			g.Jobs = append(g.Jobs, j)
		}
		w.Groups = []Group{g}
	}
	return w, nil
}

// sameAsOracle fails t unless Generate and generateOracle agree on cfg:
// deeply equal workloads that write the same JSON bytes, or the same
// error.
func sameAsOracle(t *testing.T, cfg Config) {
	t.Helper()
	got, gotErr := Generate(cfg)
	want, wantErr := generateOracle(cfg)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: error %v, oracle %v", cfg, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: workload differs from the oracle's", cfg)
	}
	var a, b bytes.Buffer
	if err := got.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%+v: JSON differs from the oracle's", cfg)
	}
}

func TestGenerateMatchesOracle(t *testing.T) {
	shapes := [][2]int{{64, 32}, {100, 100}, {16, 16}, {5, 100}, {7, 3}, {1000, 100}}
	for _, task := range models.Tasks() {
		for _, s := range shapes {
			for seed := int64(0); seed < 30; seed++ {
				sameAsOracle(t, Config{Task: task, NumJobs: s[0], GroupSize: s[1], Seed: seed})
			}
		}
		sameAsOracle(t, Config{Task: task, NumJobs: 1 << 16, GroupSize: 100, Seed: 0})
	}
}

// FuzzGenerate checks Generate against the oracle on every task, an
// unknown one included, and on job counts and group sizes around and
// below the edge cases (zero or negative picks the default group size,
// and a non-positive job count is an error).
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(models.Mix), 64, 32, int64(0))
	f.Add(uint8(models.Vision), 5, 100, int64(1))
	f.Add(uint8(models.Language), 7, 3, int64(2))
	f.Add(uint8(models.Recommendation), 1000, 0, int64(3))
	f.Add(uint8(4), 16, 16, int64(4))
	f.Add(uint8(models.Mix), -1, -1, int64(-5))
	f.Fuzz(func(t *testing.T, task uint8, numJobs, groupSize int, seed int64) {
		sameAsOracle(t, Config{
			Task:      models.Task(task % 5),
			NumJobs:   int(uint(numJobs)%4098) - 1,
			GroupSize: int(uint(groupSize)%302) - 1,
			Seed:      seed,
		})
	})
}

// serveRepeatConfig is the shape of the generate specs that the
// benchmark's serve-repeat workload sends: 64 jobs in groups of 32.
func serveRepeatConfig(task models.Task) Config {
	return Config{Task: task, NumJobs: 64, GroupSize: 32, Seed: 7}
}

var sinkWorkload Workload

func BenchmarkGenerate(b *testing.B) {
	for _, task := range models.Tasks() {
		b.Run(task.String(), func(b *testing.B) {
			cfg := serveRepeatConfig(task)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sinkWorkload = w
			}
		})
	}
}

// TestGenerateAllocs holds Generate to a handful of allocations at the
// serve-repeat shape: the generator's source, the pool copy, the
// reference queue, the jobs, the groups and the name.
func TestGenerateAllocs(t *testing.T) {
	for _, task := range models.Tasks() {
		cfg := serveRepeatConfig(task)
		if n := testing.AllocsPerRun(20, func() { sinkWorkload, _ = Generate(cfg) }); n > 10 {
			t.Errorf("%v: Generate makes %v allocations, want at most 10", task, n)
		}
	}
}
