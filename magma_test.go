package magma

import (
	"bytes"
	"reflect"
	"slices"
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

// TestWorkersReproducible pins the facade-level contract of Compare:
// its mappers run concurrently, yet each returns exactly the schedule
// its own Optimize returns at the seed a serial sweep would give it
// (opts.Seed+i).
func TestWorkersReproducible(t *testing.T) {
	g := testGroup(t, Mix, 16)
	mappers := []string{"Herald-like", "MAGMA", "stdGA", "Random"}
	opts := Options{Budget: 100, Seed: 6}
	board, err := Compare(g, PlatformS2(), mappers, opts)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(board) != len(mappers) {
		t.Fatalf("Compare returned %d schedules, want %d", len(board), len(mappers))
	}
	for _, s := range board {
		o := opts
		o.Mapper = s.Mapper
		o.Seed = opts.Seed + int64(slices.Index(mappers, s.Mapper))
		own, err := Optimize(g, PlatformS2(), o)
		if err != nil {
			t.Fatalf("Optimize %s: %v", s.Mapper, err)
		}
		if s.Fitness != own.Fitness || !slices.Equal(s.Curve, own.Curve) || !reflect.DeepEqual(s.Genome, own.Genome) {
			t.Errorf("%s: Compare's schedule (%v) differs from its own Optimize (%v)", s.Mapper, s.Fitness, own.Fitness)
		}
	}
}

// TestCacheReproducible pins the counters at the facade: a search
// counts every sample the same way with the cache on or off, with no
// dedup or fingerprint counts. That the schedules are identical with
// the cache on or off is TestResultDigests' (its off, own and shared
// columns).
func TestCacheReproducible(t *testing.T) {
	g := testGroup(t, Mix, 16)
	base, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6})
	if err != nil {
		t.Fatalf("Optimize uncached: %v", err)
	}
	if st := base.Cache; st.Deduped != 0 || st.FullFP+st.IncrementalFP+st.CleanFP != 0 ||
		st.Hits+st.Misses+st.Invalid != uint64(base.Asked) {
		t.Errorf("uncached schedule reports counters %+v", st)
	}
	s, err := Optimize(g, PlatformS2(), Options{Budget: 150, Seed: 6, Cache: true})
	if err != nil {
		t.Fatalf("Optimize cached: %v", err)
	}
	if s.Cache != base.Cache {
		t.Errorf("cached counters %+v, uncached %+v: want the same", s.Cache, base.Cache)
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
