package experiments

import (
	"bytes"
	"strings"
	"testing"

	"magma/internal/models"
	"magma/internal/platform"
)

// tinyConfig keeps the full-suite test fast while still exercising every
// experiment end to end.
func tinyConfig() Config {
	return Config{Budget: 80, GroupSize: 16, RLHidden: 8, Seed: 3}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "tab5"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s (paper order)", i, all[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	cfg := tinyConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestFig9ContainsAllMappers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := tinyConfig()
	e, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range MethodNames(cfg) {
		if !strings.Contains(out, name) {
			t.Errorf("fig9 output missing mapper %q", name)
		}
	}
	if !strings.Contains(out, "MAGMA abs") {
		t.Error("fig9 output missing absolute MAGMA row")
	}
}

func TestMethodsOrderMatchesPaper(t *testing.T) {
	got := MethodNames(Quick())
	want := []string{"Herald-like", "AI-MT-like", "PSO", "CMA", "DE",
		"TBPSA", "stdGA", "RL A2C", "RL PPO2", "MAGMA"}
	if len(got) != len(want) {
		t.Fatalf("methods = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("method %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunMethodHeuristicVsSearch(t *testing.T) {
	cfg := tinyConfig()
	prob, err := cfg.problem(models.Mix, platform.S2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := Methods(cfg)
	// Heuristic: no curve, no budget consumption.
	fit, curve, err := RunMethod(prob, ms[0], cfg.runOpts(cfg.Budget), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || curve != nil {
		t.Errorf("heuristic fit=%g curve=%v", fit, curve)
	}
	// Search: curve length equals budget.
	fit, curve, err = RunMethod(prob, ms[len(ms)-1], cfg.runOpts(cfg.Budget), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || curve.Len() != cfg.Budget {
		t.Errorf("search fit=%g curve len=%d want %d", fit, curve.Len(), cfg.Budget)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	q := Quick()
	if c.Budget != q.Budget || c.GroupSize != q.GroupSize || c.RLHidden != q.RLHidden {
		t.Errorf("withDefaults = %+v, want quick %+v", c, q)
	}
	f := Full()
	if f.Budget != 10000 || f.GroupSize != 100 || f.RLHidden != 128 {
		t.Errorf("Full() = %+v diverges from §VI-B", f)
	}
}

func TestTableWrite(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "long-header", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestGroupAndProblemHelpers(t *testing.T) {
	cfg := tinyConfig()
	g, err := cfg.group(models.Vision, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Jobs) != cfg.GroupSize {
		t.Errorf("group size = %d, want %d", len(g.Jobs), cfg.GroupSize)
	}
	prob, err := cfg.problem(models.Vision, platform.S1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumJobs() != cfg.GroupSize {
		t.Errorf("problem jobs = %d", prob.NumJobs())
	}
}
