package experiments

import (
	"fmt"
	"io"

	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/pso"
	"magma/internal/opt/random"
	"magma/internal/opt/rl"
	"magma/internal/platform"
	"magma/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10: explored map-space (PCA) and reached performance, (Mix, S2, BW=16)",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Fig. 11: convergence across extended budgets, (Vision, S2, BW=16) and (Mix, S3, BW=16)",
		Run:   runFig11,
	})
}

func runFig10(c Config, w io.Writer) error {
	c = c.withDefaults()
	prob, err := c.problem(models.Mix, platform.S2().WithBW(16), 1000)
	if err != nil {
		return err
	}
	methods := []Method{
		{Name: "MAGMA", NewOpt: func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
		{Name: "PPO2", NewOpt: func() m3e.Optimizer { return rl.NewPPO(rl.PPOConfig{Hidden: c.RLHidden}) }},
		{Name: "stdGA", NewOpt: func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{Name: "PSO", NewOpt: func() m3e.Optimizer { return pso.New(pso.Config{}) }},
		{Name: "CMA", NewOpt: func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
	}

	type explored struct {
		name    string
		vectors [][]float64
		best    float64
	}
	var runs []explored
	for mi, m := range methods {
		opts := c.runOpts(c.Budget)
		opts.RecordSamples = true
		res, err := runSearch(prob, m.NewOpt(), opts, c.Seed+int64(mi))
		if err != nil {
			return err
		}
		runs = append(runs, explored{name: m.Name, vectors: res.Explored, best: res.BestFitness})
	}
	// The "exhaustively sampled" best-effort reference: a larger random
	// sweep (the paper used ~1M samples over two days; we scale it to
	// 10x the method budget).
	randRes, err := runSearch(prob, random.New(256), c.runOpts(10*c.Budget), c.Seed+99)
	if err != nil {
		return err
	}

	// (b) PCA of the union of explored points; report each method's
	// centroid and spread in the shared projection.
	var all [][]float64
	var owner []int
	for mi, r := range runs {
		step := len(r.vectors)/400 + 1 // subsample for tractable PCA
		for i := 0; i < len(r.vectors); i += step {
			all = append(all, r.vectors[i])
			owner = append(owner, mi)
		}
	}
	pts, err := stats.PCA2(all)
	if err != nil {
		return err
	}
	tb := Table{
		Title:   "Fig. 10(b): explored map-space, 2-D PCA projection per method",
		Headers: []string{"Method", "samples", "centroid-x", "centroid-y", "spread-x", "spread-y"},
	}
	for mi, r := range runs {
		var xs, ys []float64
		for i, p := range pts {
			if owner[i] == mi {
				xs = append(xs, p[0])
				ys = append(ys, p[1])
			}
		}
		tb.Rows = append(tb.Rows, []string{
			r.name, fmt.Sprint(len(xs)),
			fmtF2(stats.Mean(xs)), fmtF2(stats.Mean(ys)),
			fmtF2(stats.Stddev(xs)), fmtF2(stats.Stddev(ys)),
		})
	}
	tb.Notes = append(tb.Notes,
		"paper shape: MAGMA samples widely at the start then converges; CMA/PSO/stdGA/PPO2 settle in different local optima")
	if err := tb.Write(w); err != nil {
		return err
	}

	// (c) Reached performance.
	tc := Table{
		Title:   "Fig. 10(c): reached performance (GFLOP/s)",
		Headers: []string{"Method", "GFLOPs"},
	}
	tc.Rows = append(tc.Rows, []string{"Exhaustively Sampled*", fmtG(randRes.BestFitness)})
	for _, r := range runs {
		tc.Rows = append(tc.Rows, []string{r.name, fmtG(r.best)})
	}
	tc.Notes = append(tc.Notes,
		"*best-effort reference from a 10x-budget random sweep; paper shape: MAGMA matches it, others fall short")
	return tc.Write(w)
}

func runFig11(c Config, w io.Writer) error {
	c = c.withDefaults()
	// The paper extends the budget to 100K samples; we scale to 3x the
	// configured budget and report best-so-far at checkpoints.
	budget := 3 * c.Budget
	cases := []struct {
		label string
		task  models.Task
		p     platform.Platform
	}{
		{"(Vision, S2, BW=16)", models.Vision, platform.S2().WithBW(16)},
		{"(Mix, S3, BW=16)", models.Mix, platform.S3().WithBW(16)},
	}
	checkFracs := []float64{0.02, 0.05, 0.1, 0.2, 0.33, 0.66, 1.0}
	for ci, cs := range cases {
		prob, err := c.problem(cs.task, cs.p, 1100+int64(ci))
		if err != nil {
			return err
		}
		t := Table{
			Title:   "Fig. 11 " + cs.label + ": best-so-far GFLOP/s by samples consumed",
			Headers: []string{"Mapper"},
		}
		for _, f := range checkFracs {
			t.Headers = append(t.Headers, fmt.Sprintf("@%d", int(f*float64(budget))))
		}
		for mi, m := range Methods(c) {
			if m.Heuristic != nil {
				continue // heuristics have no convergence curve
			}
			_, curve, err := RunMethod(prob, m, c.runOpts(budget), c.Seed+int64(ci*100+mi))
			if err != nil {
				return err
			}
			row := []string{m.Name}
			for _, f := range checkFracs {
				row = append(row, fmtG(curve.At(int(f*float64(budget))-1)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper shape: most methods plateau within the base budget; late converging methods still end below MAGMA")
		if err := t.Write(w); err != nil {
			return err
		}
	}
	return nil
}
