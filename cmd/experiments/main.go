// Command experiments regenerates the paper's evaluation artifacts
// (Figs. 7–17 and Table V). Each experiment prints the rows/series of
// the corresponding figure or table, followed by a "note: paper shape:"
// line stating the paper's qualitative claim to read it against.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig8                # one experiment, quick settings
//	experiments -exp all -full           # the whole suite at paper scale
//	experiments -exp fig9 -budget 2000 -group 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"magma/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (fig7..fig17, tab5) or 'all'")
		list   = flag.Bool("list", false, "list available experiments and exit")
		full   = flag.Bool("full", false, "paper-scale settings (budget 10000, group 100, 128-wide RL)")
		budget = flag.Int("budget", 0, "override sampling budget per method")
		group  = flag.Int("group", 0, "override group size")
		hidden = flag.Int("rl-hidden", 0, "override RL MLP width")
		seed   = flag.Int64("seed", 0, "override base seed")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s  %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *group > 0 {
		cfg.GroupSize = *group
	}
	if *hidden > 0 {
		cfg.RLHidden = *hidden
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	// Ctrl-C cancels the suite's context: the in-flight search stops at
	// its next generation boundary and the runner exits cleanly, keeping
	// every table already printed instead of dying mid-figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	run := func(e experiments.Experiment) {
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted during %s after %v — artifacts above are complete, %s is not\n",
					e.ID, time.Since(start).Round(time.Millisecond), e.ID)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, err := experiments.ByID(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run(e)
}
