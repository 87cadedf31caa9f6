package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// search workload re-executes itself as its worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(runWorker(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestMetricTablesMatchManifest keeps BENCHMARK.json and the metrics the
// program emits in step: same workloads, names, units and directions.
func TestMetricTablesMatchManifest(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d+%d metrics, the benchmark %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higherBetter) {
			t.Errorf("end-to-end %d: manifest %+v, benchmark %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := m.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higherBetter) {
			t.Errorf("per-layer %d: manifest %+v, benchmark %+v", i, got, d)
		}
	}
}

// TestSmoke runs every workload untraced and traced over a short window
// against a freshly built cmd/serve and checks each run's result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/serve and runs every workload")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "serve")
	build := exec.Command("go", "build", "-o", serveBin, "magma/cmd/serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "11", "--seconds", "0.2", "--trace", trace,
				"--serve-bin", serveBin, "--out", filepath.Join(dir, "results")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace %s: last line is not a result: %v", w.name, trace, err)
				continue
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %+v", w.name, trace, res)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or mis-unitted: %+v", w.name, trace, d.name, m)
				}
			}
		}
	}
	spans, _ := filepath.Glob(filepath.Join(dir, "results", "*.spans.json"))
	if len(spans) != len(workloads) {
		t.Errorf("%d span files written, want one per traced run (%d)", len(spans), len(workloads))
	}
}
