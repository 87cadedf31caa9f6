package magma

import (
	"bytes"
	"strings"
	"testing"
)

func testGroup(t testing.TB, task Task, n int) Group {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{Task: task, NumJobs: n, GroupSize: n, Seed: 5})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	return wl.Groups[0]
}

func TestOptimizeDefaultIsMAGMA(t *testing.T) {
	g := testGroup(t, Mix, 20)
	s, err := Optimize(g, PlatformS2(), Options{Budget: 200, Seed: 1})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if s.Mapper != "MAGMA" {
		t.Errorf("default mapper = %q, want MAGMA", s.Mapper)
	}
	if s.ThroughputGFLOPs <= 0 || s.MakespanCycles <= 0 || s.EnergyUnits <= 0 {
		t.Errorf("degenerate schedule: %+v", s)
	}
	if len(s.Curve) != 200 {
		t.Errorf("curve = %d samples, want 200", len(s.Curve))
	}
	if err := s.Mapping.Validate(20, PlatformS2().NumAccels()); err != nil {
		t.Errorf("invalid mapping: %v", err)
	}
}

func TestOptimizeEveryMapper(t *testing.T) {
	g := testGroup(t, Mix, 16)
	for _, name := range MapperNames() {
		t.Run(name, func(t *testing.T) {
			s, err := Optimize(g, PlatformS2(), Options{Mapper: name, Budget: 60, Seed: 2})
			if err != nil {
				t.Fatalf("Optimize(%s): %v", name, err)
			}
			if s.ThroughputGFLOPs <= 0 {
				t.Errorf("%s produced zero throughput", name)
			}
		})
	}
	if _, err := Optimize(g, PlatformS2(), Options{Mapper: "bogus"}); err == nil {
		t.Error("unknown mapper accepted")
	}
}

func TestOptimizeObjectives(t *testing.T) {
	g := testGroup(t, Vision, 12)
	for _, obj := range []Objective{Throughput, Latency, Energy, EDP} {
		s, err := Optimize(g, PlatformS1(), Options{Objective: obj, Budget: 60, Seed: 3})
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		if s.Fitness == 0 {
			t.Errorf("objective %v: zero fitness", obj)
		}
	}
}

func TestCompareSortsByFitness(t *testing.T) {
	g := testGroup(t, Mix, 16)
	res, err := Compare(g, PlatformS2(), []string{"Herald-like", "AI-MT-like", "MAGMA"}, Options{Budget: 150, Seed: 4})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Fitness > res[i-1].Fitness {
			t.Error("Compare results not sorted")
		}
	}
	// On heterogeneous S2, AI-MT-like must come last (§VI-E).
	if res[len(res)-1].Mapper != "AI-MT-like" {
		t.Errorf("last mapper = %s, want AI-MT-like", res[len(res)-1].Mapper)
	}
}

// TestWorkersReproducible pins the facade-level determinism contract:
// Optimize and Compare return identical schedules at any worker count.
func TestWorkersReproducible(t *testing.T) {
	g := testGroup(t, Mix, 16)
	base, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatalf("Optimize serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		s, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Workers: workers})
		if err != nil {
			t.Fatalf("Optimize workers=%d: %v", workers, err)
		}
		if s.Fitness != base.Fitness || s.MakespanCycles != base.MakespanCycles {
			t.Errorf("workers=%d: schedule differs from serial (fitness %v vs %v)",
				workers, s.Fitness, base.Fitness)
		}
	}

	mappers := []string{"Herald-like", "MAGMA", "stdGA", "Random"}
	serial, err := Compare(g, PlatformS2(), mappers, Options{Budget: 100, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatalf("Compare serial: %v", err)
	}
	parallel, err := Compare(g, PlatformS2(), mappers, Options{Budget: 100, Seed: 6, Workers: 4})
	if err != nil {
		t.Fatalf("Compare parallel: %v", err)
	}
	for i := range serial {
		if serial[i].Mapper != parallel[i].Mapper || serial[i].Fitness != parallel[i].Fitness {
			t.Errorf("rank %d: serial (%s, %v) != parallel (%s, %v)", i,
				serial[i].Mapper, serial[i].Fitness, parallel[i].Mapper, parallel[i].Fitness)
		}
	}
}

// TestCacheReproducible pins the facade-level contract of the fitness
// cache: Optimize returns the identical schedule with the cache on or
// off, at any worker count, and reports its hit/miss counters.
func TestCacheReproducible(t *testing.T) {
	g := testGroup(t, Mix, 16)
	base, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatalf("Optimize uncached: %v", err)
	}
	// Uncached, only the pruning pass counts: no dedup, no fingerprints.
	if st := base.Cache; st.Deduped != 0 || st.FullFP+st.IncrementalFP+st.CleanFP != 0 ||
		st.Hits+st.Misses+st.Invalid != uint64(base.Asked) {
		t.Errorf("uncached schedule reports cache counters: %+v", st)
	}
	for _, workers := range []int{1, 4} {
		s, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Workers: workers, Cache: true})
		if err != nil {
			t.Fatalf("Optimize cached workers=%d: %v", workers, err)
		}
		if s.Fitness != base.Fitness || s.MakespanCycles != base.MakespanCycles {
			t.Errorf("cached workers=%d: schedule differs from uncached (fitness %v vs %v)",
				workers, s.Fitness, base.Fitness)
		}
		if total := s.Cache.Hits + s.Cache.Deduped + s.Cache.Misses + s.Cache.Invalid; total != 150 {
			t.Errorf("cached workers=%d: counters cover %d samples, want 150", workers, total)
		}
	}
}

func TestWarmStartViaPublicAPI(t *testing.T) {
	g := testGroup(t, Recommendation, 16)
	first, err := Optimize(g, PlatformS2(), Options{Budget: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	store := NewWarmStore(0)
	store.Record(Recommendation, first)
	if !store.Known(Recommendation) || store.Known(Vision) {
		t.Error("WarmStore.Known wrong")
	}
	seeds := store.Seeds(Recommendation, 16)
	if len(seeds) != 1 {
		t.Fatalf("seeds = %d, want 1", len(seeds))
	}
	// A warm-started 1-generation run must already be at least as good
	// as the stored schedule's fitness (the seed is in the population).
	warm, err := Optimize(g, PlatformS2(), Options{Budget: 16, Seed: 6, WarmStart: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fitness < first.Fitness*0.999 {
		t.Errorf("warm-start fitness %g below recorded %g", warm.Fitness, first.Fitness)
	}
}

func TestRenderSchedule(t *testing.T) {
	g := testGroup(t, Mix, 16)
	s, err := Optimize(g, PlatformS2(), Options{Mapper: "Herald-like"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSchedule(&buf, g, PlatformS2(), s, 60); err != nil {
		t.Fatalf("RenderSchedule: %v", err)
	}
	if !strings.Contains(buf.String(), "Schedule") {
		t.Errorf("unexpected render output: %q", buf.String())
	}
}

func TestPlatformAccessors(t *testing.T) {
	ids := []string{"S1", "S2", "S3", "S4", "S5", "S6"}
	ps := []Platform{PlatformS1(), PlatformS2(), PlatformS3(), PlatformS4(), PlatformS5(), PlatformS6()}
	for i, p := range ps {
		if p.Setting != ids[i] {
			t.Errorf("platform %d setting = %s, want %s", i, p.Setting, ids[i])
		}
		byID, err := PlatformBySetting(ids[i])
		if err != nil || byID.Setting != ids[i] {
			t.Errorf("PlatformBySetting(%s) = %v, %v", ids[i], byID.Setting, err)
		}
	}
}

func TestModelNamesNonEmpty(t *testing.T) {
	if len(ModelNames()) < 15 {
		t.Errorf("model zoo has %d models", len(ModelNames()))
	}
}

func TestReadWorkloadJSONRoundTrip(t *testing.T) {
	wl, err := GenerateWorkload(WorkloadConfig{Task: Language, NumJobs: 40, GroupSize: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumJobs() != wl.NumJobs() {
		t.Errorf("round trip jobs = %d, want %d", got.NumJobs(), wl.NumJobs())
	}
}
