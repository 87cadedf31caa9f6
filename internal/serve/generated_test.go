package serve

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"magma"
	"magma/internal/sim"
)

// generatedCases are the generate specs the memo tests resolve, with the
// config each parses to: the task aliases, the default group size and a
// spec over the memo's job bound, which is generated and not kept.
var generatedCases = []struct {
	spec GenerateSpec
	cfg  magma.WorkloadConfig
}{
	{GenerateSpec{Task: "Mix", NumJobs: 64, GroupSize: 32, Seed: 1}, magma.WorkloadConfig{Task: magma.Mix, NumJobs: 64, GroupSize: 32, Seed: 1}},
	{GenerateSpec{NumJobs: 64, GroupSize: 32, Seed: 1}, magma.WorkloadConfig{Task: magma.Mix, NumJobs: 64, GroupSize: 32, Seed: 1}},
	{GenerateSpec{Task: "Lang", NumJobs: 48, GroupSize: 16, Seed: 7}, magma.WorkloadConfig{Task: magma.Language, NumJobs: 48, GroupSize: 16, Seed: 7}},
	{GenerateSpec{Task: "Language", NumJobs: 48, GroupSize: 16, Seed: 7}, magma.WorkloadConfig{Task: magma.Language, NumJobs: 48, GroupSize: 16, Seed: 7}},
	{GenerateSpec{Task: "vision", NumJobs: 250, Seed: 3}, magma.WorkloadConfig{Task: magma.Vision, NumJobs: 250, Seed: 3}},
	{GenerateSpec{Task: "Recom", NumJobs: 5, GroupSize: 100, Seed: -2}, magma.WorkloadConfig{Task: magma.Recommendation, NumJobs: 5, GroupSize: 100, Seed: -2}},
	{GenerateSpec{Task: "Mix", NumJobs: generatedJobs + 64, GroupSize: 64, Seed: 5}, magma.WorkloadConfig{Task: magma.Mix, NumJobs: generatedJobs + 64, GroupSize: 64, Seed: 5}},
}

func workloadJSON(t *testing.T, wl magma.Workload) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGeneratedMatchesGenerator: a resolved spec is the generator's
// workload, deeply and byte for byte, on the first resolve and on the
// repeat the memo answers.
func TestGeneratedMatchesGenerator(t *testing.T) {
	for _, tc := range generatedCases {
		want, err := magma.GenerateWorkload(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON := workloadJSON(t, want)
		spec := tc.spec
		for call := range 2 {
			got, err := workloadFor(&OptimizeRequest{Generate: &spec})
			if err != nil {
				t.Fatalf("%+v call %d: %v", spec, call, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v call %d: workload differs from the generator's", spec, call)
			}
			if !bytes.Equal(workloadJSON(t, got), wantJSON) {
				t.Fatalf("%+v call %d: WriteJSON bytes differ from the generator's", spec, call)
			}
		}
		generated.mu.Lock()
		_, kept := generated.entries[tc.cfg]
		generated.mu.Unlock()
		if keep := want.NumJobs() <= generatedJobs; kept != keep {
			t.Fatalf("%+v: kept %v, want %v (%d jobs)", spec, kept, keep, want.NumJobs())
		}
	}
}

// TestGeneratedCopies: a resolved workload is the caller's own, laid
// out like the generator's, so altering it leaves the next resolve of
// its spec unchanged.
func TestGeneratedCopies(t *testing.T) {
	spec := GenerateSpec{Task: "Mix", NumJobs: 64, GroupSize: 16, Seed: 21}
	want, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: 64, GroupSize: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		got, err := workloadFor(&OptimizeRequest{Generate: &spec})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("resolve differs from the generator's workload after a caller altered an earlier one")
		}
		for _, g := range got.Groups {
			if cap(g.Jobs) != len(g.Jobs) {
				t.Fatalf("group %d: cap %d > len %d, an append would write into the next group", g.Index, cap(g.Jobs), len(g.Jobs))
			}
		}
		got.Groups[0].Jobs[0].Batch = 999
		got.Groups[0].Jobs[1].Layer.Name = "altered"
		got.Groups[1].Jobs = append(got.Groups[1].Jobs, got.Groups[0].Jobs[0])
		got.Groups[2] = magma.Group{}
		if got.Groups[3].Jobs[0] != want.Groups[3].Jobs[0] {
			t.Fatal("an append to group 1 wrote into group 3")
		}
	}
}

// TestGeneratedEviction: the memo never holds more than generatedSpecs
// specs or generatedJobs jobs, evicts the oldest first, and does not
// keep a spec larger than the job bound.
func TestGeneratedEviction(t *testing.T) {
	var m generatedMemo
	check := func(want []magma.WorkloadConfig) {
		t.Helper()
		if !reflect.DeepEqual(m.order, want) {
			t.Fatalf("memo holds %d specs, want %d (oldest %+v)", len(m.order), len(want), m.order[0])
		}
		jobs := 0
		for _, cfg := range want {
			wl, ok := m.entries[cfg]
			if !ok {
				t.Fatalf("%+v is in the order but not the map", cfg)
			}
			jobs += wl.NumJobs()
		}
		if len(m.entries) != len(want) || m.jobs != jobs || m.jobs > generatedJobs {
			t.Fatalf("memo counts %d entries and %d jobs, want %d and %d (bound %d)", len(m.entries), m.jobs, len(want), jobs, generatedJobs)
		}
	}
	resolve := func(cfg magma.WorkloadConfig) {
		t.Helper()
		if _, err := m.workload(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// The spec bound: the 65th small spec evicts the first.
	var small []magma.WorkloadConfig
	for i := range generatedSpecs + 1 {
		cfg := magma.WorkloadConfig{Task: magma.Mix, NumJobs: 8, GroupSize: 8, Seed: int64(i)}
		small = append(small, cfg)
		resolve(cfg)
	}
	check(small[1:])
	resolve(small[1]) // a hit does not reorder or re-add
	check(small[1:])

	// The job bound: each 6000-job spec evicts the oldest entries until
	// it fits, so at most two are held.
	var large []magma.WorkloadConfig
	for i := range 3 {
		cfg := magma.WorkloadConfig{Task: magma.Vision, NumJobs: 6000, GroupSize: 100, Seed: int64(i)}
		large = append(large, cfg)
		resolve(cfg)
	}
	check(large[1:])

	// A spec over the job bound is generated, returned and not kept.
	over := magma.WorkloadConfig{Task: magma.Mix, NumJobs: generatedJobs + 100, GroupSize: 100, Seed: 1}
	wl, err := m.workload(over)
	if err != nil || wl.NumJobs() <= generatedJobs {
		t.Fatalf("over-bound spec: %d jobs, err %v", wl.NumJobs(), err)
	}
	check(large[1:])

	// An error is returned and not kept.
	if _, err := m.workload(magma.WorkloadConfig{Task: magma.Mix}); err == nil {
		t.Fatal("a zero-job spec resolved")
	}
	check(large[1:])
}

// TestGeneratedConcurrent resolves a few specs from many goroutines,
// each altering what it gets; run it under -race.
func TestGeneratedConcurrent(t *testing.T) {
	var m generatedMemo
	var cfgs []magma.WorkloadConfig
	var wants []magma.Workload
	for i := range 4 {
		cfg := magma.WorkloadConfig{Task: []magma.Task{magma.Vision, magma.Language, magma.Recommendation, magma.Mix}[i], NumJobs: 40, GroupSize: 20, Seed: int64(i)}
		want, err := magma.GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, wants = append(cfgs, cfg), append(wants, want)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				k := (w + i) % len(cfgs)
				got, err := m.workload(cfgs[k])
				if err != nil || !reflect.DeepEqual(got, wants[k]) {
					errs <- "resolve differs from the generator's workload"
					return
				}
				got.Groups[0].Jobs[0].Batch = -1
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestResponseIdleCoreIsEmptyArray: a schedule that leaves a core idle
// (the mapping decoder leaves its queue nil) goes on the wire as [],
// not null, and the schedule itself is not written.
func TestResponseIdleCoreIsEmptyArray(t *testing.T) {
	s := New(magma.NewSolver(magma.SolverOptions{}))
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: 4, GroupSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queues := [][]int{{0, 1}, nil, {2, 3}, nil}
	res := magma.StreamResult{Schedules: []magma.Schedule{{Mapper: "MAGMA", Mapping: sim.Mapping{Queues: queues}}}}
	resp, err := s.response(&runSpec{wl: wl, pf: magma.PlatformS2()}, res, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, resp)
	if body := rec.Body.String(); !strings.Contains(body, `"queues":[[0,1],[],[2,3],[]]`) {
		t.Fatalf("idle cores not encoded as []: %s", body)
	}
	if queues[1] != nil || queues[3] != nil {
		t.Fatal("response wrote into the schedule's queues")
	}
}
