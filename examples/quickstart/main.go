// Quickstart: generate a multi-tenant Mix workload, map one
// dependency-free group onto the small heterogeneous accelerator (S2,
// Table III) with MAGMA, and print the found schedule.
package main

import (
	"fmt"
	"log"
	"os"

	"magma"
)

func main() {
	// A Table III platform: 3 HB cores + 1 LB core sharing 16 GB/s.
	pf := magma.PlatformS2().WithBW(16)

	// A benchmark workload (§VI-A2): jobs from vision, language and
	// recommendation models, chopped into dependency-free groups.
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{
		Task:      magma.Mix,
		NumJobs:   100,
		GroupSize: 100,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	group := wl.Groups[0]

	// Search for a mapping with MAGMA (§V).
	sched, err := magma.Optimize(group, pf, magma.Options{
		Mapper: "MAGMA",
		Budget: 3000,
		Seed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mapper:      %s\n", sched.Mapper)
	fmt.Printf("throughput:  %.1f GFLOP/s\n", sched.ThroughputGFLOPs)
	fmt.Printf("makespan:    %.3g cycles\n", sched.MakespanCycles)
	fmt.Printf("first seen:  %.1f GFLOP/s (best of the initial population)\n", sched.Curve.At(99))
	fmt.Println()
	if err := magma.RenderSchedule(os.Stdout, group, pf, sched, 100); err != nil {
		log.Fatal(err)
	}
}
