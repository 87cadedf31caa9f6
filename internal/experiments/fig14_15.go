package experiments

import (
	"fmt"
	"io"

	"magma/internal/analyzer"
	"magma/internal/encoding"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Fig. 14: fixed vs flexible PE arrays — job analysis and MAGMA throughput",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Fig. 15: schedule visualization, Herald-like vs MAGMA (Mix, S5, BW=1)",
		Run:   runFig15,
	})
}

func runFig14(c Config, w io.Writer) error {
	c = c.withDefaults()
	cases := []struct {
		label string
		fixed platform.Platform
	}{
		{"Small (S1)", platform.S1()},
		{"Large (S3)", platform.S3()},
	}

	// (a-b) Job analysis: average per-job no-stall latency and required
	// BW for fixed vs flexible arrays on Vision and Mix.
	ta := Table{
		Title:   "Fig. 14(a-b): per-job average no-stall latency (cycles) / required BW (GB/s), fixed vs flexible",
		Headers: []string{"Accel", "Task", "Lat fixed", "Lat flexible", "BW fixed", "BW flexible"},
	}
	for ci, cs := range cases {
		flex := cs.fixed.WithFlexible()
		for ti, task := range []models.Task{models.Vision, models.Mix} {
			g, err := c.group(task, 1400+int64(ci*10+ti))
			if err != nil {
				return err
			}
			fixedTab, err := analyzer.Build(g, cs.fixed)
			if err != nil {
				return err
			}
			flexTab, err := analyzer.Build(g, flex)
			if err != nil {
				return err
			}
			fs, xs := fixedTab.Summarize(), flexTab.Summarize()
			ta.Rows = append(ta.Rows, []string{
				cs.label, task.String(),
				fmtG(fs.MeanCycles), fmtG(xs.MeanCycles),
				fmtG(fs.MeanReqBWGBs), fmtG(xs.MeanReqBWGBs),
			})
		}
	}
	ta.Notes = append(ta.Notes,
		"paper shape: flexible lowers no-stall latency (better utilization) but raises the BW requirement")
	if err := ta.Write(w); err != nil {
		return err
	}

	// (c-d) MAGMA throughput fixed vs flexible, normalized to flexible.
	tc := Table{
		Title:   "Fig. 14(c-d): MAGMA throughput, fixed normalized to flexible",
		Headers: []string{"Accel", "Task", "BW", "Fixed/Flexible", "Flexible abs (GFLOP/s)"},
	}
	for ci, cs := range cases {
		bws := []float64{1, 16}
		if cs.fixed.NumAccels() == 8 { // Large
			bws = []float64{1, 256}
		}
		flex := cs.fixed.WithFlexible()
		for ti, task := range []models.Task{models.Vision, models.Mix} {
			for _, bw := range bws {
				run := func(p platform.Platform) (float64, error) {
					prob, err := c.problem(task, p.WithBW(bw), 1450+int64(ci*10+ti))
					if err != nil {
						return 0, err
					}
					res, err := runSearch(prob, optmagma.New(optmagma.Config{}), c.runOpts(c.Budget), c.Seed)
					if err != nil {
						return 0, err
					}
					return res.BestFitness, nil
				}
				ffit, err := run(cs.fixed)
				if err != nil {
					return err
				}
				xfit, err := run(flex)
				if err != nil {
					return err
				}
				tc.Rows = append(tc.Rows, []string{
					cs.label, task.String(), fmt.Sprintf("%g", bw),
					fmtF2(ffit / xfit), fmtG(xfit),
				})
			}
		}
	}
	tc.Notes = append(tc.Notes,
		"paper shape: flexible outperforms fixed in every scenario")
	return tc.Write(w)
}

func runFig15(c Config, w io.Writer) error {
	c = c.withDefaults()
	prob, err := c.problem(models.Mix, platform.S5().WithBW(1), 1500)
	if err != nil {
		return err
	}
	// Herald-like schedule.
	hm, err := heraldLike().Map(prob.Table)
	if err != nil {
		return err
	}
	hres, err := sim.Run(prob.Table, hm, sim.Options{CaptureFrames: true})
	if err != nil {
		return err
	}
	// MAGMA schedule.
	mres, err := runSearch(prob, optmagma.New(optmagma.Config{}), c.runOpts(c.Budget), c.Seed)
	if err != nil {
		return err
	}
	best := encoding.Decode(mres.Best, prob.NumAccels())
	msim, err := sim.Run(prob.Table, best, sim.Options{CaptureFrames: true})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== Fig. 15: found schedules on (Mix, S5, BW=1) ==")
	fmt.Fprintf(w, "\n--- Herald-like (finish: %.3g cycles) ---\n", hres.TotalCycles)
	if err := sim.RenderGantt(w, prob.Table, hres, 96); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n--- MAGMA (finish: %.3g cycles) ---\n", msim.TotalCycles)
	if err := sim.RenderGantt(w, prob.Table, msim, 96); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nspeedup (Herald finish / MAGMA finish): %.2fx\n", hres.TotalCycles/msim.TotalCycles)
	fmt.Fprintln(w, "note: paper shape: Herald-like burns BW at the start causing contention; MAGMA spreads BW-heavy jobs across the runtime")
	fmt.Fprintln(w)
	return nil
}
