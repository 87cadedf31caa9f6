package experiments

import (
	"fmt"
	"io"

	"magma/internal/analyzer"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/rl"
	"magma/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Fig. 12: bandwidth sweep on heterogeneous S2/S4, Mix task",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Fig. 13: sub-accelerator combinations S3/S4/S5 — job analysis and MAGMA performance",
		Run:   runFig13,
	})
}

func runFig12(c Config, w io.Writer) error {
	c = c.withDefaults()
	sweeps := []struct {
		label string
		base  platform.Platform
		bws   []float64
	}{
		{"Mix (Small Accel, S2)", platform.S2(), platform.SmallBWSweep()},
		{"Mix (Large Accel, S4)", platform.S4(), platform.LargeBWSweep()},
	}
	fig12Methods := []Method{
		{Name: "Herald-like", Heuristic: heraldLike()},
		{Name: "RL A2C", NewOpt: func() m3e.Optimizer { return rl.NewA2C(rl.A2CConfig{Hidden: c.RLHidden}) }},
		{Name: "RL PPO2", NewOpt: func() m3e.Optimizer { return rl.NewPPO(rl.PPOConfig{Hidden: c.RLHidden}) }},
		{Name: "MAGMA", NewOpt: func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
	}
	for si, sw := range sweeps {
		t := Table{
			Title:   "Fig. 12: " + sw.label + " — throughput normalized to MAGMA per BW",
			Headers: []string{"Mapper"},
		}
		for _, bw := range sw.bws {
			t.Headers = append(t.Headers, fmt.Sprintf("BW=%g", bw))
		}
		results := map[string][]float64{}
		for _, bw := range sw.bws {
			// One group per sweep, so the columns differ in bandwidth
			// alone, not in workload too.
			prob, err := c.problem(models.Mix, sw.base.WithBW(bw), 1200+int64(si*10))
			if err != nil {
				return err
			}
			for mi, m := range fig12Methods {
				fit, _, err := RunMethod(prob, m, c.runOpts(c.Budget), c.Seed+int64(mi))
				if err != nil {
					return err
				}
				results[m.Name] = append(results[m.Name], fit)
			}
		}
		for _, m := range fig12Methods {
			row := []string{m.Name}
			for bi := range sw.bws {
				row = append(row, fmtF2(results[m.Name][bi]/results["MAGMA"][bi]))
			}
			t.Rows = append(t.Rows, row)
		}
		abs := []string{"MAGMA abs (GFLOP/s)"}
		for bi := range sw.bws {
			abs = append(abs, fmtG(results["MAGMA"][bi]))
		}
		t.Rows = append(t.Rows, abs)
		t.Notes = append(t.Notes,
			"paper shape: MAGMA's margin over the others grows as BW shrinks")
		if err := t.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig13(c Config, w io.Writer) error {
	c = c.withDefaults()
	settings := []string{"S3", "S4", "S5"}

	// (a-b) Job analysis per setting: average per-job no-stall latency
	// and required BW across the four tasks (stacked totals, as in the
	// paper's concatenated bars).
	ta := Table{
		Title:   "Fig. 13(a-b): job analysis — per-task average no-stall latency (cycles) / required BW (GB/s)",
		Headers: []string{"Setting", "Vision lat", "Lang lat", "Recom lat", "Mix lat", "Vision BW", "Lang BW", "Recom BW", "Mix BW"},
	}
	for _, s := range settings {
		p, err := platform.BySetting(s)
		if err != nil {
			return err
		}
		lat := make([]float64, 4)
		bw := make([]float64, 4)
		for ti, task := range models.Tasks() {
			g, err := c.group(task, 1300+int64(ti))
			if err != nil {
				return err
			}
			tab, err := analyzer.Build(g, p)
			if err != nil {
				return err
			}
			st := tab.Summarize()
			lat[ti], bw[ti] = st.MeanCycles, st.MeanReqBWGBs
		}
		ta.Rows = append(ta.Rows, []string{
			s, fmtG(lat[0]), fmtG(lat[1]), fmtG(lat[2]), fmtG(lat[3]),
			fmtG(bw[0]), fmtG(bw[1]), fmtG(bw[2]), fmtG(bw[3]),
		})
	}
	ta.Notes = append(ta.Notes,
		"paper shape: S4 (hetero) has more no-stall latency but lower BW demand than S3; S5 (BigLittle) demands the least BW")
	if err := ta.Write(w); err != nil {
		return err
	}

	// (c) MAGMA throughput per setting at BW=1 and BW=64, normalized to S5.
	tc := Table{
		Title:   "Fig. 13(c): MAGMA throughput on Mix, normalized to S5 per BW",
		Headers: []string{"BW (GB/s)", "S3", "S4", "S5", "S5 abs (GFLOP/s)"},
	}
	for _, bw := range []float64{1, 64} {
		vals := map[string]float64{}
		for _, s := range settings {
			p, err := platform.BySetting(s)
			if err != nil {
				return err
			}
			prob, err := c.problem(models.Mix, p.WithBW(bw), 1350)
			if err != nil {
				return err
			}
			res, err := runSearch(prob, optmagma.New(optmagma.Config{}), c.runOpts(c.Budget), c.Seed)
			if err != nil {
				return err
			}
			vals[s] = res.BestFitness
		}
		tc.Rows = append(tc.Rows, []string{
			fmt.Sprintf("%g", bw),
			fmtF2(vals["S3"] / vals["S5"]), fmtF2(vals["S4"] / vals["S5"]), "1.00",
			fmtG(vals["S5"]),
		})
	}
	tc.Notes = append(tc.Notes,
		"paper shape: at BW=1 heterogeneity wins (S4>S3) and BigLittle S5 is best; at high BW the big homogeneous S3 catches up")
	return tc.Write(w)
}
