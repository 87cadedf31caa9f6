package experiments

import (
	"fmt"
	"io"

	"magma/internal/models"
	"magma/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: homogeneous small accelerator (S1, BW=16) across four tasks, all mappers",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: heterogeneous small (S2, BW=16) and large (S4, BW=256) accelerators, Vision and Mix",
		Run:   runFig9,
	})
}

// methodComparison runs every Table IV mapper on one (task, platform)
// problem and returns throughputs keyed by method name.
func methodComparison(c Config, task models.Task, p platform.Platform, seedOffset int64) (map[string]float64, error) {
	prob, err := c.problem(task, p, seedOffset)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for mi, m := range Methods(c) {
		fit, _, err := RunMethod(prob, m, c.runOpts(c.Budget), c.Seed+int64(mi))
		if err != nil {
			return nil, err
		}
		out[m.Name] = fit
	}
	return out, nil
}

// comparisonTable renders one mapper-comparison as a normalized table
// (throughput / MAGMA throughput), mirroring the paper's bar charts.
func comparisonTable(title string, c Config, results []map[string]float64, labels []string) Table {
	t := Table{
		Title:   title,
		Headers: append([]string{"Mapper"}, labels...),
	}
	for _, name := range MethodNames(c) {
		row := []string{name}
		for _, res := range results {
			norm := res[name] / res["MAGMA"]
			row = append(row, fmtF2(norm))
		}
		t.Rows = append(t.Rows, row)
	}
	abs := []string{"MAGMA abs (GFLOP/s)"}
	for _, res := range results {
		abs = append(abs, fmtG(res["MAGMA"]))
	}
	t.Rows = append(t.Rows, abs)
	return t
}

func runFig8(c Config, w io.Writer) error {
	c = c.withDefaults()
	p := platform.S1().WithBW(16)
	var results []map[string]float64
	var labels []string
	for ti, task := range models.Tasks() {
		res, err := methodComparison(c, task, p, int64(ti))
		if err != nil {
			return err
		}
		results = append(results, res)
		labels = append(labels, task.String())
	}
	t := comparisonTable("Fig. 8: normalized throughput on S1 (BW=16 GB/s)", c, results, labels)
	t.Notes = append(t.Notes,
		"paper shape: heuristics work well on homogeneous platforms; MAGMA best overall (geomean 1.4x over heuristics)")
	return t.Write(w)
}

func runFig9(c Config, w io.Writer) error {
	c = c.withDefaults()
	cases := []struct {
		label string
		task  models.Task
		p     platform.Platform
	}{
		{"Vision/S2", models.Vision, platform.S2().WithBW(16)},
		{"Mix/S2", models.Mix, platform.S2().WithBW(16)},
		{"Vision/S4", models.Vision, platform.S4().WithBW(256)},
		{"Mix/S4", models.Mix, platform.S4().WithBW(256)},
	}
	var results []map[string]float64
	var labels []string
	for ci, cs := range cases {
		res, err := methodComparison(c, cs.task, cs.p, 100+int64(ci))
		if err != nil {
			return err
		}
		results = append(results, res)
		labels = append(labels, cs.label)
	}
	t := comparisonTable("Fig. 9: normalized throughput on heterogeneous S2 (BW=16) and S4 (BW=256)", c, results, labels)
	t.Notes = append(t.Notes,
		"paper shape: AI-MT-like collapses on heterogeneous platforms (39-52x); RLs are closest to MAGMA; MAGMA best",
		fmt.Sprintf("budget=%d samples per search method", c.Budget))
	return t.Write(w)
}
