// Command magma runs one mapping search from the command line: pick a
// Table III platform (or sweep its bandwidth), a benchmark task (or a
// workload JSON produced by jobgen), and a Table IV mapper.
//
// Examples:
//
//	magma -platform S2 -task Mix -mapper MAGMA -budget 10000
//	magma -platform S4 -bw 64 -task Vision -mapper Herald-like -gantt
//	magma -workload jobs.json -mapper "RL PPO2" -budget 2000
//	magma -platform S2 -task Mix -compare
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"magma"
	"magma/internal/sim"
)

func main() {
	var (
		platformID = flag.String("platform", "S2", "Table III setting: S1..S6")
		bw         = flag.Float64("bw", 0, "system bandwidth GB/s (0 = setting default)")
		task       = flag.String("task", "Mix", "benchmark task: Vision, Lang, Recom, Mix")
		jobs       = flag.Int("jobs", 100, "jobs per group when generating a workload")
		wlPath     = flag.String("workload", "", "workload JSON file (overrides -task/-jobs)")
		groupIdx   = flag.Int("group", 0, "group index within the workload")
		mapper     = flag.String("mapper", "MAGMA", "mapper name (see -mappers)")
		budget     = flag.Int("budget", 10000, "sampling budget for search mappers")
		objective  = flag.String("objective", "throughput", "throughput | latency | energy | edp")
		seed       = flag.Int64("seed", 1, "random seed")
		gantt      = flag.Bool("gantt", false, "render the found schedule")
		compare    = flag.Bool("compare", false, "run every Table IV mapper and print a leaderboard")
		listMap    = flag.Bool("mappers", false, "list mapper names and exit")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("magma: ")

	if *listMap {
		for _, m := range magma.MapperNames() {
			fmt.Println(m)
		}
		return
	}

	pf, err := magma.PlatformBySetting(*platformID)
	if err != nil {
		log.Fatal(err)
	}
	if *bw > 0 {
		pf = pf.WithBW(*bw)
	}

	group, err := loadGroup(*wlPath, *task, *jobs, *seed, *groupIdx)
	if err != nil {
		log.Fatal(err)
	}

	obj, err := parseObjective(*objective)
	if err != nil {
		log.Fatal(err)
	}
	opts := magma.Options{
		Mapper: *mapper, Objective: obj, Budget: *budget, Seed: *seed,
	}

	fmt.Printf("platform: %s\n", pf)
	fmt.Printf("group:    %d jobs, %.3g total GFLOPs\n", len(group.Jobs), float64(group.TotalFLOPs())/1e9)

	// Ctrl-C cancels the search context instead of killing the process:
	// the run stops at its next generation boundary and the best-so-far
	// schedule (flagged partial) is printed. A second Ctrl-C kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One reused validator re-checks every schedule before it is
	// printed or rendered: its reused scratch makes the -compare
	// leaderboard loop allocation-free, and a mapping that fails here
	// is a solver bug worth a loud exit over a quietly bogus printout.
	var validator sim.Validator
	nJobs, nAccels := len(group.Jobs), pf.NumAccels()

	if *compare {
		results, err := magma.CompareCtx(ctx, group, pf, nil, opts)
		if err != nil {
			log.Fatal(err)
		}
		if ctx.Err() != nil {
			fmt.Println("\ninterrupted — leaderboard of best-so-far (partial) results:")
		}
		fmt.Printf("\n%-12s  %12s  %14s\n", "mapper", "GFLOP/s", "makespan (cyc)")
		for _, r := range results {
			if err := validator.Validate(r.Mapping, nJobs, nAccels); err != nil {
				log.Fatalf("%s schedule failed validation: %v", r.Mapper, err)
			}
			note := ""
			if r.Partial {
				note = fmt.Sprintf("  (partial: %d/%d samples)", r.Samples, *budget)
			}
			fmt.Printf("%-12s  %12.1f  %14.4g%s\n", r.Mapper, r.ThroughputGFLOPs, r.MakespanCycles, note)
		}
		return
	}

	sched, err := magma.OptimizeCtx(ctx, group, pf, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := validator.Validate(sched.Mapping, nJobs, nAccels); err != nil {
		log.Fatalf("%s schedule failed validation: %v", sched.Mapper, err)
	}
	if sched.Partial {
		fmt.Printf("\ninterrupted after %d of %d samples — best-so-far schedule:\n", sched.Samples, *budget)
	}
	fmt.Printf("mapper:     %s\n", sched.Mapper)
	fmt.Printf("throughput: %.1f GFLOP/s\n", sched.ThroughputGFLOPs)
	fmt.Printf("makespan:   %.4g cycles\n", sched.MakespanCycles)
	fmt.Printf("energy:     %.4g units\n", sched.EnergyUnits)
	if st := sched.Cache; st.Hits+st.Misses > 0 {
		fmt.Printf("cache:      %.1f%% hit rate (%d hits, %d missed)\n",
			100*st.HitRate(), st.Hits, st.Misses)
	}
	if st := sched.Cache; st.BoundChecked > 0 {
		fmt.Printf("bound:      %.1f%% of missed candidates settled by a bound (%d of %d; %d of them in the virtual-time stage)\n",
			100*st.BoundPruneRate(), st.BoundPruned, st.Misses, st.VirtualPruned)
	}
	if sched.Partial {
		printPartialCurve(sched.Curve)
	}
	if *gantt {
		fmt.Println()
		if err := magma.RenderSchedule(os.Stdout, group, pf, sched, 100); err != nil {
			log.Fatal(err)
		}
	}
}

// printPartialCurve summarizes the truncated convergence curve of an
// interrupted search: a handful of evenly spaced best-so-far points, so
// the user sees how far along the run was when it stopped.
func printPartialCurve(curve magma.Curve) {
	n := curve.Len()
	if n == 0 {
		return
	}
	const points = 8
	fmt.Printf("curve:      %d samples;", n)
	step := (n + points - 1) / points
	for i := step - 1; i < n; i += step {
		fmt.Printf(" %.4g@%d", curve.At(i), i+1)
	}
	if (n-1)%step != step-1 {
		fmt.Printf(" %.4g@%d", curve.At(n-1), n)
	}
	fmt.Println()
}

func loadGroup(path, task string, jobs int, seed int64, idx int) (magma.Group, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return magma.Group{}, err
		}
		defer f.Close()
		wl, err := magma.ReadWorkloadJSON(f)
		if err != nil {
			return magma.Group{}, err
		}
		if idx < 0 || idx >= len(wl.Groups) {
			return magma.Group{}, fmt.Errorf("group %d out of range (workload has %d)", idx, len(wl.Groups))
		}
		return wl.Groups[idx], nil
	}
	t, err := parseTask(task)
	if err != nil {
		return magma.Group{}, err
	}
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{
		Task: t, NumJobs: jobs * (idx + 1), GroupSize: jobs, Seed: seed,
	})
	if err != nil {
		return magma.Group{}, err
	}
	return wl.Groups[idx], nil
}

func parseTask(s string) (magma.Task, error) {
	switch s {
	case "Vision", "vision":
		return magma.Vision, nil
	case "Lang", "lang", "Language", "language":
		return magma.Language, nil
	case "Recom", "recom", "Recommendation":
		return magma.Recommendation, nil
	case "Mix", "mix":
		return magma.Mix, nil
	}
	return 0, fmt.Errorf("unknown task %q", s)
}

func parseObjective(s string) (magma.Objective, error) {
	switch s {
	case "throughput":
		return magma.Throughput, nil
	case "latency":
		return magma.Latency, nil
	case "energy":
		return magma.Energy, nil
	case "edp":
		return magma.EDP, nil
	}
	return 0, fmt.Errorf("unknown objective %q", s)
}
