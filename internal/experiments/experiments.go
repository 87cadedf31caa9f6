// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment is a named function producing one
// or more text tables; cmd/experiments exposes them on the command line
// and the repository-root benchmarks drive the same code under
// `go test -bench`.
//
// Experiments accept a Config whose Quick mode shrinks budgets, group
// sizes and network widths so the whole suite runs in minutes on a
// laptop; Full mode matches the paper's settings (10K-sample budget,
// group size 100, 128-wide RL networks). Absolute numbers differ from
// the paper — the cost model is ours, not the authors' MAESTRO testbed —
// but the comparisons (who wins, by roughly what factor, where the
// crossovers fall) are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	Budget    int   // sampling budget per method (paper: 10000)
	GroupSize int   // jobs per group (paper: 100)
	RLHidden  int   // MLP width for the RL mappers (paper: 128)
	Seed      int64 // base RNG seed
	// Context, when non-nil, makes every search of the suite
	// cancellable: cmd/experiments wires SIGINT to it, so Ctrl-C stops
	// the in-flight search at a generation boundary instead of killing
	// the process mid-figure.
	Context context.Context
}

// runOpts returns the m3e runner options for one search at the given
// budget under the suite's context.
func (c Config) runOpts(budget int) m3e.Options {
	return m3e.Options{Budget: budget, Context: c.Context}
}

// runSearch is m3e.Run with the suite's cancellation contract: an
// aborted (Ctrl-C'd) search returns the context's error instead of a
// truncated Result, so no figure ever prints partial numbers as if they
// were full-budget ones.
func runSearch(prob *m3e.Problem, opt m3e.Optimizer, opts m3e.Options, seed int64) (m3e.Result, error) {
	res, err := m3e.Run(prob, opt, opts, seed)
	if err != nil {
		return res, err
	}
	if res.Aborted {
		if opts.Context != nil && opts.Context.Err() != nil {
			return res, opts.Context.Err()
		}
		return res, context.Canceled
	}
	return res, nil
}

// Quick returns the fast-suite configuration (CI-friendly).
func Quick() Config {
	return Config{Budget: 600, GroupSize: 30, RLHidden: 24, Seed: 7}
}

// Full returns the paper-scale configuration (§VI-B).
func Full() Config {
	return Config{Budget: m3e.DefaultBudget, GroupSize: workload.DefaultGroupSize, RLHidden: 128, Seed: 7}
}

func (c Config) withDefaults() Config {
	q := Quick()
	if c.Budget <= 0 {
		c.Budget = q.Budget
	}
	if c.GroupSize <= 0 {
		c.GroupSize = q.GroupSize
	}
	if c.RLHidden <= 0 {
		c.RLHidden = q.RLHidden
	}
	if c.Seed == 0 {
		c.Seed = q.Seed
	}
	return c
}

// group builds the first dependency-free group of a task workload.
func (c Config) group(task models.Task, seedOffset int64) (workload.Group, error) {
	w, err := workload.Generate(workload.Config{
		Task:      task,
		NumJobs:   c.GroupSize,
		GroupSize: c.GroupSize,
		Seed:      c.Seed + seedOffset,
	})
	if err != nil {
		return workload.Group{}, err
	}
	return w.Groups[0], nil
}

// problem builds an M3E throughput problem for (task, platform).
func (c Config) problem(task models.Task, p platform.Platform, seedOffset int64) (*m3e.Problem, error) {
	g, err := c.group(task, seedOffset)
	if err != nil {
		return nil, err
	}
	return m3e.NewProblem(g, p, m3e.Throughput)
}

// Table is a rendered experiment artifact.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Write renders the table with aligned columns.
func (t Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		return strings.TrimRight(b.String(), " ")
	}
	fmt.Fprintln(w, line(t.Headers))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total >= 2 {
		total -= 2
	}
	return total
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // e.g. "fig8"
	Title string
	Run   func(c Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, idList())
}

func idList() string {
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func orderKey(id string) string {
	// figNN sorts numerically; tables go last.
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return fmt.Sprintf("a%02d", n)
	}
	return "z" + id
}

func fmtG(v float64) string  { return fmt.Sprintf("%.3g", v) }
func fmtF2(v float64) string { return fmt.Sprintf("%.2f", v) }
