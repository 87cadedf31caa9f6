package experiments

import (
	"fmt"
	"io"

	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "tab5",
		Title: "Table V: warm-start of MAGMA — Raw vs Trf-0/1/30/100-ep",
		Run:   runTable5,
	})
}

// warmEpochs are the optimization checkpoints of Table V.
var warmEpochs = []int{0, 1, 30, 100}

// warmCheckpoints runs MAGMA (optionally seeded) and returns the best
// fitness after each checkpoint epoch. Epoch e means the best observed
// once the initial population plus e bred generations were evaluated.
func warmCheckpoints(prob *m3e.Problem, seeds []encoding.Genome, seed int64, c Config) (map[int]float64, encoding.Genome, error) {
	pop := prob.NumJobs() // MAGMA's population = group size
	maxEpoch := warmEpochs[len(warmEpochs)-1]
	budget := pop * (maxEpoch + 1)
	opt := optmagma.New(optmagma.Config{})
	if len(seeds) > 0 {
		opt.Seed(seeds)
	}
	res, err := runSearch(prob, opt, c.runOpts(budget), seed)
	if err != nil {
		return nil, encoding.Genome{}, err
	}
	out := make(map[int]float64, len(warmEpochs))
	for _, e := range warmEpochs {
		idx := pop*(e+1) - 1
		if idx >= len(res.Curve) {
			idx = len(res.Curve) - 1
		}
		out[e] = res.Curve[idx]
	}
	return out, res.Best, nil
}

// warmColumn produces one Table V column: Raw plus the Trf checkpoints,
// all normalized by the Trf-100-ep value.
func warmColumn(prob *m3e.Problem, seeds []encoding.Genome, seed int64, c Config) (raw float64, trf map[int]float64, best encoding.Genome, err error) {
	trf, best, err = warmCheckpoints(prob, seeds, seed, c)
	if err != nil {
		return 0, nil, encoding.Genome{}, err
	}
	rawCk, _, err := warmCheckpoints(prob, nil, seed+1, c)
	if err != nil {
		return 0, nil, encoding.Genome{}, err
	}
	return rawCk[0], trf, best, nil
}

func runTable5(c Config, w io.Writer) error {
	c = c.withDefaults()

	// (a) Mix on S4 at BW=1: solve Insts0, then warm-start Insts1..4.
	ta := Table{
		Title:   "Table V(a): warm-start performance on (Mix, S4, BW=1), normalized per column by Trf-100-ep",
		Headers: []string{"", "Insts0 (Optimized)", "Insts1", "Insts2", "Insts3", "Insts4", "Ave.(warm)"},
	}
	p := platform.S4().WithBW(1)
	store := optmagma.NewWarmStore(0)

	prob0, err := c.problem(models.Mix, p, 2000)
	if err != nil {
		return err
	}
	raw0, trf0, best0, err := warmColumn(prob0, nil, c.Seed, c)
	if err != nil {
		return err
	}
	store.Record(models.Mix, best0)

	type column struct {
		raw float64
		trf map[int]float64
	}
	cols := []column{{raw: raw0, trf: trf0}}
	for inst := 1; inst <= 4; inst++ {
		prob, err := c.problem(models.Mix, p, 2000+int64(inst))
		if err != nil {
			return err
		}
		seeds := store.SeedsFor(models.Mix, prob.NumJobs())
		raw, trf, _, err := warmColumn(prob, seeds, c.Seed+int64(inst), c)
		if err != nil {
			return err
		}
		cols = append(cols, column{raw: raw, trf: trf})
	}
	rows := []struct {
		label string
		get   func(col column) float64
	}{
		{"Raw", func(col column) float64 { return col.raw }},
		{"Trf-0-ep", func(col column) float64 { return col.trf[0] }},
		{"Trf-1-ep", func(col column) float64 { return col.trf[1] }},
		{"Trf-30-ep", func(col column) float64 { return col.trf[30] }},
		{"Trf-100-ep", func(col column) float64 { return col.trf[100] }},
	}
	for _, r := range rows {
		row := []string{r.label}
		var warmVals []float64
		for i, col := range cols {
			v := r.get(col) / col.trf[100]
			row = append(row, fmtF2(v))
			if i > 0 {
				warmVals = append(warmVals, v)
			}
		}
		row = append(row, fmtF2(stats.Mean(warmVals)))
		ta.Rows = append(ta.Rows, row)
	}
	ta.Notes = append(ta.Notes,
		"paper shape: Trf-0-ep >> Raw (stored knowledge transfers); Trf-30-ep ~ full optimization")
	if err := ta.Write(w); err != nil {
		return err
	}

	// (b) Averaged across S1-S6 per task at BW=1.
	tb := Table{
		Title:   "Table V(b): warm-start averaged across S1-S6 at BW=1, normalized by Trf-100-ep",
		Headers: []string{"", "Mix", "Vision", "Lang", "Rec"},
	}
	tasks := []models.Task{models.Mix, models.Vision, models.Language, models.Recommendation}
	agg := map[string]map[models.Task][]float64{}
	for _, r := range rows {
		agg[r.label] = map[models.Task][]float64{}
	}
	for si, setting := range platform.Settings() {
		sp, err := platform.BySetting(setting)
		if err != nil {
			return err
		}
		sp = sp.WithBW(1)
		for ti, task := range tasks {
			src, err := c.problem(task, sp, 2100+int64(si*10+ti))
			if err != nil {
				return err
			}
			_, _, best, err := warmColumn(src, nil, c.Seed+int64(si), c)
			if err != nil {
				return err
			}
			dst, err := c.problem(task, sp, 2150+int64(si*10+ti))
			if err != nil {
				return err
			}
			raw, trf, _, err := warmColumn(dst, []encoding.Genome{best}, c.Seed+int64(si)+1, c)
			if err != nil {
				return err
			}
			col := column{raw: raw, trf: trf}
			for _, r := range rows {
				agg[r.label][task] = append(agg[r.label][task], r.get(col)/col.trf[100])
			}
		}
	}
	for _, r := range rows {
		row := []string{r.label}
		for _, task := range tasks {
			row = append(row, fmtF2(stats.Mean(agg[r.label][task])))
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"paper shape: warm-start gains are largest for the BW-intensive Lang and Rec tasks",
		fmt.Sprintf("population = group size = %d; 100 epochs per full optimization", c.GroupSize))
	return tb.Write(w)
}
