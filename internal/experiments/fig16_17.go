package experiments

import (
	"fmt"
	"io"

	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "Fig. 16: MAGMA operator ablation — Mut / +Crs-gen / all four operators",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Fig. 17: group-size sweep with MAGMA, (Mix, S2, BW=16)",
		Run:   runFig17,
	})
}

func runFig16(c Config, w io.Writer) error {
	c = c.withDefaults()
	variants := []struct {
		name string
		cfg  optmagma.Config
	}{
		{"Mut.", optmagma.Config{
			DisableCrossoverGen: true, DisableCrossoverRG: true, DisableCrossoverAccel: true}},
		{"Mut.+Crs-gen", optmagma.Config{
			DisableCrossoverRG: true, DisableCrossoverAccel: true}},
		{"All four operators", optmagma.Config{}},
	}
	cases := []struct {
		label string
		task  models.Task
		p     platform.Platform
	}{
		{"(Vision, S2, BW=16)", models.Vision, platform.S2().WithBW(16)},
		{"(Mix, S3, BW=16)", models.Mix, platform.S3().WithBW(16)},
	}
	checkFracs := []float64{0.05, 0.1, 0.2, 0.4, 0.7, 1.0}
	for ci, cs := range cases {
		prob, err := c.problem(cs.task, cs.p, 1600+int64(ci))
		if err != nil {
			return err
		}
		t := Table{
			Title:   "Fig. 16 " + cs.label + ": best-so-far GFLOP/s by samples",
			Headers: []string{"Operators"},
		}
		for _, f := range checkFracs {
			t.Headers = append(t.Headers, fmt.Sprintf("@%d", int(f*float64(c.Budget))))
		}
		// Identical seeds across variants (same initial populations) so
		// differences isolate the operators; averaged over repeats.
		const repeats = 3
		for _, v := range variants {
			sum := make([]float64, len(checkFracs))
			for rep := 0; rep < repeats; rep++ {
				res, err := runSearch(prob, optmagma.New(v.cfg), c.runOpts(c.Budget), c.Seed+int64(rep))
				if err != nil {
					return err
				}
				for fi, f := range checkFracs {
					idx := int(f*float64(c.Budget)) - 1
					if idx < 0 {
						idx = 0
					}
					if idx >= len(res.Curve) {
						idx = len(res.Curve) - 1
					}
					sum[fi] += res.Curve[idx]
				}
			}
			row := []string{v.name}
			for fi := range checkFracs {
				row = append(row, fmtG(sum[fi]/repeats))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper shape: crossover-gen is essential for sample efficiency; crossover-rg and crossover-accel further speed convergence")
		if err := t.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig17(c Config, w io.Writer) error {
	c = c.withDefaults()
	// Group size is a chunking parameter of one fixed job stream (§III):
	// the same pool of queued jobs is chopped into groups of each size,
	// every group is scheduled by MAGMA (with a pro-rata share of the
	// sampling budget), and the stream's aggregate throughput is
	// reported. Paper sizes pruned to the pool size and platform width.
	pool := 8 * c.GroupSize
	paperSizes := []int{1000, 500, 200, 100, 50, 40, 20, 10, 4}
	var sizes []int
	for _, s := range paperSizes {
		if s <= pool && s >= platform.S2().NumAccels() {
			sizes = append(sizes, s)
		}
	}
	p := platform.S2().WithBW(16)
	base, err := workload.Generate(workload.Config{
		Task: models.Mix, NumJobs: pool, GroupSize: pool, Seed: c.Seed + 1700,
	})
	if err != nil {
		return err
	}
	stream := base.Groups[0].Jobs

	t := Table{
		Title:   "Fig. 17: MAGMA stream throughput by group size (Mix, S2, BW=16), normalized to the largest group",
		Headers: []string{"Group size", "GFLOPs", "Normalized"},
	}
	var vals []float64
	for _, gs := range sizes {
		var totalFLOPs int64
		var totalSeconds float64
		budgetPer := c.Budget * gs / pool
		if budgetPer < 20*gs {
			budgetPer = 20 * gs // at least ~20 generations per group
		}
		for start := 0; start+gs <= len(stream); start += gs {
			g := workload.Group{Index: start / gs}
			for i, j := range stream[start : start+gs] {
				j.ID = i
				g.Jobs = append(g.Jobs, j)
			}
			prob, err := m3e.NewProblem(g, p, m3e.Throughput)
			if err != nil {
				return err
			}
			res, err := runSearch(prob, optmagma.New(optmagma.Config{}), c.runOpts(budgetPer), c.Seed)
			if err != nil {
				return err
			}
			_, simRes, err := prob.EvaluateMapping(res.BestMapping(prob.NumAccels()))
			if err != nil {
				return err
			}
			totalFLOPs += g.TotalFLOPs()
			totalSeconds += simRes.Seconds
		}
		vals = append(vals, float64(totalFLOPs)/totalSeconds/1e9)
	}
	for i, gs := range sizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(gs), fmtG(vals[i]), fmtF2(vals[i] / vals[0]),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: performance is stable across group sizes; very small groups (e.g. 4) under-perform")
	return t.Write(w)
}
