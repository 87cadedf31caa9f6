package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestServeModes drives the single-node load tests in-process at a
// small request count through run, which fails unless the report
// passes its gates, and checks the gated section was present rather
// than skipped.
func TestServeModes(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		args    []string
		section string
	}{
		{"serve", []string{"-serve", "-requests", "6", "-clients", "2"}, "latency_ms"},
		{"chaos", []string{"-serve", "-chaos", "-requests", "12", "-clients", "2"}, "chaos"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, c.name+".json")
			if err := run(append(c.args, "-o", out)); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(buf), `"`+c.section+`":`) {
				t.Errorf("report has no %s section", c.section)
			}
		})
	}
}

// TestFleetMode drives a 2-shard fleet with one client, so the fleet
// and the single-node baseline see the same request sequence: sharding
// must then leave the aggregate cross-request hit rate exactly at the
// baseline's, and every gate must pass unskipped.
func TestFleetMode(t *testing.T) {
	rep, err := fleetLoadTest(6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.CrossRequestHitRate, rep.Fleet.Baseline.CrossRequestHitRate; got != want {
		t.Errorf("fleet cross-request hit rate %v, single-node baseline %v", got, want)
	}
	var out strings.Builder
	if err := check(&out, "serve", decode(t, rep)); err != nil {
		t.Errorf("%v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "gate skip fleet.") {
		t.Errorf("fleet gates skipped:\n%s", out.String())
	}
}

func TestRunRejectsFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos"},
		{"-fleet", "2"},
		{"-serve", "-chaos", "-fleet", "2"},
		{"-workers", "4"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// decode round-trips a report through JSON, as run does before
// checking it, so the gate paths are tested against the real tags.
func decode(t *testing.T, rep any) map[string]any {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// passing returns a report of each kind that passes every gate of its
// kind, with every section present so no gate is skipped.
func passing(t *testing.T) map[string]map[string]any {
	eval := Report{
		GOMAXPROCS:     4,
		KernelSpeedup:  2.3,
		VirtualSpeedup: 3,
		PhaseBreakdown: PhaseBreakdown{Rows: []PhaseRow{
			{Generations: 100, Reasks: 990},
		}},
		BoundPruneRate: 0.8,
		Bound:          BoundReport{Pruned: 5000, OnNsPerGen: 300, OffNsPerGen: 900},
	}
	serve := ServeReport{
		GOMAXPROCS:          4,
		RequestsPerSec:      40,
		CrossRequestHitRate: 0.3,
		Latency:             &LatencyJSON{P50: 1, P95: 2, P99: 3, Max: 3},
		Chaos:               &ChaosReport{MapperPanics: 2, Failed500s: 2, Succeeded: 10, SnapshotRestoreOK: true},
		Fleet: &FleetReport{
			OwnershipDisjoint: true,
			// The aggregate rate above sits exactly on the baseline; the
			// shards straddle it, ungated.
			PerShard: []ShardBench{{CrossRequestHitRate: 0.1}, {CrossRequestHitRate: 0.5}},
			Baseline: BaselineBench{CrossRequestHitRate: 0.3},
		},
	}
	return map[string]map[string]any{"eval": decode(t, eval), "serve": decode(t, serve)}
}

// set overwrites the value at a gate path ("*" selects an array's
// first element or an object's only key) and returns the object
// holding it and its key.
func set(t *testing.T, doc map[string]any, path string, v any) (map[string]any, string) {
	t.Helper()
	segs := strings.Split(path, ".")
	node := any(doc)
	for _, seg := range segs[:len(segs)-1] {
		switch n := node.(type) {
		case map[string]any:
			node = n[seg]
		case []any:
			i, _ := strconv.Atoi(seg) // "*" selects element 0
			node = n[i]
		}
	}
	obj, ok := node.(map[string]any)
	if !ok {
		t.Fatalf("%s: parent is not an object", path)
	}
	key := segs[len(segs)-1]
	if key == "*" {
		for k := range obj {
			key = k
		}
	}
	obj[key] = v
	return obj, key
}

// TestEachGateCanFail requires the passing reports to pass every gate
// unskipped; then it breaks each gate's value, and removes its field (a
// rename), and requires check to fail on that gate and on no gate that
// reads neither as its path nor as its ref the field broken.
func TestEachGateCanFail(t *testing.T) {
	for kind, doc := range passing(t) {
		var out strings.Builder
		if err := check(&out, kind, doc); err != nil || strings.Contains(out.String(), "gate skip") {
			t.Errorf("%s: %v\n%s", kind, err, out.String())
		}
	}
	for _, g := range gates {
		doc := passing(t)[g.report]
		limit := g.bound
		if g.ref != "" {
			r, err := number(doc, g.ref)
			if err != nil {
				t.Fatal(err)
			}
			limit = g.bound*r + g.slack
		}
		var bad any
		switch g.op {
		case ">":
			bad = limit
		case ">=":
			bad = limit - 0.5
		case "<=":
			bad = limit + 1
		case "true":
			bad = false
		default:
			t.Fatalf("%s: no violating value for comparator %q", g, g.op)
		}
		obj, key := set(t, doc, g.path, bad)
		wantFailure(t, g, doc, "violated")
		delete(obj, key)
		wantFailure(t, g, doc, "renamed")
	}
}

// wantFailure requires check to fail on g, with g's field broken in
// doc, and every other gate of the report that does not read that field
// to pass or skip.
func wantFailure(t *testing.T, g gate, doc map[string]any, how string) {
	t.Helper()
	err := check(io.Discard, g.report, doc)
	if err == nil || !strings.Contains(err.Error(), g.String()) {
		t.Errorf("%s gate %s: got %v", how, g, err)
	}
	for _, h := range gates {
		if h.report != g.report || h == g || h.path == g.path || h.ref == g.path {
			continue
		}
		if h.skip(doc) != "" {
			continue
		}
		if err := h.eval(doc); err != nil {
			t.Errorf("%s gate %s also failed %s, which does not read its field: %v", how, g, h, err)
		}
	}
}

// TestSectionGatesFollowTheReport pins that a gate with a section
// applies by the report's own sections: skipped when the section is
// absent, applied when it is present.
func TestSectionGatesFollowTheReport(t *testing.T) {
	sectioned := 0
	for _, g := range gates {
		if g.report == "serve" && g.when != "" {
			sectioned++
		}
	}
	doc := passing(t)["serve"]
	chaos, fleet := doc["chaos"], doc["fleet"]
	delete(doc, "chaos")
	delete(doc, "fleet")
	var out strings.Builder
	if err := check(&out, "serve", doc); err != nil {
		t.Fatalf("report without sections: %v", err)
	}
	if got := strings.Count(out.String(), "gate skip"); got != sectioned {
		t.Errorf("report without sections skipped %d gates, want the %d sectioned ones:\n%s", got, sectioned, out.String())
	}
	doc["chaos"], doc["fleet"] = chaos, fleet
	set(t, doc, "chaos.succeeded", 0.0)
	if err := check(io.Discard, "serve", doc); err == nil {
		t.Error("report with a chaos section passed with chaos.succeeded 0")
	}
}

func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: magma/internal/m3e
cpu: Intel(R) Xeon(R) Processor
BenchmarkEvaluate-4          	  229995	      7149 ns/op	       0 B/op	       0 allocs/op
BenchmarkMAGMAGeneration/workers=2-4         	    1136	   1406974 ns/op	     826 B/op	      20 allocs/op
BenchmarkMAGMAGeneration/workers=8
    bench_test.go:99: a benchmark log line
BenchmarkMAGMAGeneration/workers=8-4         	    1005	   1357858 ns/op	    1911 B/op	      44 allocs/op	        10.0 hit_pct
PASS
ok  	magma/internal/m3e	3.1s
goos: linux
pkg: magma/internal/opt/magma
BenchmarkMutate	  588927	       412.8 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	magma/internal/opt/magma	0.6s
`
	got, cpu, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu %q", cpu)
	}
	want := []Measurement{
		{Package: "magma/internal/m3e", Name: "Evaluate", NsPerOp: 7149, Iterations: 229995},
		{Package: "magma/internal/m3e", Name: "MAGMAGeneration/workers=2", NsPerOp: 1406974, BytesPerOp: 826, AllocsPerOp: 20, Iterations: 1136},
		{Package: "magma/internal/m3e", Name: "MAGMAGeneration/workers=8", NsPerOp: 1357858, BytesPerOp: 1911, AllocsPerOp: 44, Iterations: 1005},
		{Package: "magma/internal/opt/magma", Name: "Mutate", NsPerOp: 412.8, Iterations: 588927},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench:\n got %+v\nwant %+v", got, want)
	}
	if _, _, err := parseBench(strings.NewReader("PASS\nok  \tmagma/internal/sim\t0.1s\n")); err == nil {
		t.Error("output without result lines parsed")
	}
}

func TestLatencyOfNearestRank(t *testing.T) {
	if latencyOf(nil) != nil {
		t.Error("empty sample summarised")
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // 100, 99, ..., 1: latencyOf sorts a copy
	}
	if got, want := *latencyOf(ms), (LatencyJSON{P50: 50, P95: 95, P99: 99, Max: 100}); got != want {
		t.Errorf("1..100: got %+v, want %+v", got, want)
	}
	if ms[0] != 100 {
		t.Error("latencyOf reordered its input")
	}
	if got, want := *latencyOf([]float64{5, 1, 3, 2, 4}), (LatencyJSON{P50: 3, P95: 5, P99: 5, Max: 5}); got != want {
		t.Errorf("five samples: got %+v, want %+v", got, want)
	}
	if got, want := *latencyOf([]float64{7}), (LatencyJSON{P50: 7, P95: 7, P99: 7, Max: 7}); got != want {
		t.Errorf("one sample: got %+v, want %+v", got, want)
	}
}
