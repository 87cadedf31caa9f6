// Bandwidth sweep (the Fig. 12 shape): map the same Mix group onto the
// small heterogeneous accelerator at shrinking system bandwidths and
// watch the gap between a manual heuristic and MAGMA grow as bandwidth
// becomes the scarce resource.
package main

import (
	"fmt"
	"log"

	"magma"
)

func main() {
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{
		Task: magma.Mix, NumJobs: 60, GroupSize: 60, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	group := wl.Groups[0]

	// Sweep through the regime where the mapping decision binds. (Below
	// ~8 GB/s this cost model's jobs are all memory-bound and every
	// schedule converges to the compulsory-traffic floor, so this sweep
	// starts higher on the bandwidth axis than the paper's.)
	fmt.Printf("%8s  %14s  %14s  %8s\n", "BW GB/s", "Herald GFLOP/s", "MAGMA GFLOP/s", "MAGMA/H")
	for _, bw := range []float64{64, 32, 16, 8} {
		pf := magma.PlatformS2().WithBW(bw)
		herald, err := magma.Optimize(group, pf, magma.Options{Mapper: "Herald-like"})
		if err != nil {
			log.Fatal(err)
		}
		best, err := magma.Optimize(group, pf, magma.Options{Mapper: "MAGMA", Budget: 3000, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8g  %14.1f  %14.1f  %7.2fx\n",
			bw, herald.ThroughputGFLOPs, best.ThroughputGFLOPs,
			best.ThroughputGFLOPs/herald.ThroughputGFLOPs)
	}
}
