package main

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"magma"
	"magma/internal/serve"
)

func cloneQueues(q [][]int) [][]int {
	out := make([][]int, len(q))
	for i := range q {
		out[i] = slices.Clone(q[i])
	}
	return out
}

// reverseLongest reverses the longest queue in place: the same jobs on
// the same cores in another order.
func reverseLongest(q [][]int) {
	longest := 0
	for i := range q {
		if len(q[i]) > len(q[longest]) {
			longest = i
		}
	}
	slices.Reverse(q[longest])
}

func TestSearchVerifyRejectsTamperedResults(t *testing.T) {
	s := newSearchSystem(config{seed: 3}, 16, 4)
	out := s.search(streamSearch, 0)
	other := s.search(streamSearch, 1)
	if out.Err != "" || other.Err != "" {
		t.Fatal(out.Err, other.Err)
	}
	tampered := out
	tampered.GFLOPs = math.Nextafter(out.GFLOPs, math.Inf(1))
	reordered := out
	reordered.Queues = cloneQueues(out.Queues)
	reverseLongest(reordered.Queues)

	key := s.key(0)
	ops := []opResult{
		{key: key, payload: out},
		{key: key, payload: tampered},
		{key: key, payload: reordered},
		{key: key, payload: out},   // a repeat with the same schedule
		{key: key, payload: other}, // a valid schedule, but another input's
	}
	if err := s.verify(ops, 1); err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, true, true, false, true} {
		if (ops[i].err != nil) != wantErr {
			t.Errorf("op %d: err = %v, want an error: %v", i, ops[i].err, wantErr)
		}
	}
}

func TestServeVerifyRejectsTamperedResults(t *testing.T) {
	tf := repeatTraffic(5)
	spec := tf.warmup[1]
	wl, err := magma.GenerateWorkload(spec.wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := magma.OptimizeStream(wl, platform(), magma.StreamOptions{
		BudgetPerGroup: spec.search.BudgetPerGroup, Seed: spec.search.Seed, Cache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var groups []serve.GroupSchedule
	for gi, sched := range res.Schedules {
		groups = append(groups, serve.GroupSchedule{
			Index: gi, Mapper: sched.Mapper, Fitness: sched.Fitness, ThroughputGFLOPs: sched.ThroughputGFLOPs,
			MakespanCycles: sched.MakespanCycles, EnergyUnits: sched.EnergyUnits, Queues: sched.Mapping.Queues,
		})
	}
	response := func(gs []serve.GroupSchedule, indent bool) opResult {
		body := map[string]any{"groups": gs, "throughput_gflops": res.ThroughputGFLOPs}
		raw, err := json.Marshal(body)
		if indent {
			raw, err = json.MarshalIndent(body, "", "  ")
		}
		if err != nil {
			t.Fatal(err)
		}
		return opResult{payload: serveOut{spec: spec, raw: raw}}
	}
	tampered := slices.Clone(groups)
	tampered[0].ThroughputGFLOPs = math.Nextafter(tampered[0].ThroughputGFLOPs, 0)
	reordered := slices.Clone(groups)
	reordered[1].Queues = cloneQueues(groups[1].Queues)
	reverseLongest(reordered[1].Queues)

	ops := []opResult{
		response(groups, false),
		response(groups, false),
		response(groups, true), // the same schedules, not byte-identical
		response(tampered, false),
		response(reordered, false),
	}
	s := &serveSystem{tf: tf}
	if err := s.verify(ops, len(ops)); err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, false, true, true, true} {
		if (ops[i].err != nil) != wantErr {
			t.Errorf("op %d: err = %v, want an error: %v", i, ops[i].err, wantErr)
		}
	}
	if !ops[0].rated || ops[1].rated || ops[0].sum != ops[1].sum {
		t.Error("the first response to a body is rated, a repeat is not, and both digest alike")
	}
}

func TestCheckResolvedComparesEveryField(t *testing.T) {
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: 32, GroupSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	local, err := magma.OptimizeStream(wl, platform(), magma.StreamOptions{BudgetPerGroup: 320, Seed: 2, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	served := make([]serve.GroupSchedule, len(local.Schedules))
	for gi, s := range local.Schedules {
		served[gi] = serve.GroupSchedule{Index: gi, Mapper: s.Mapper, Fitness: s.Fitness, ThroughputGFLOPs: s.ThroughputGFLOPs,
			MakespanCycles: s.MakespanCycles, EnergyUnits: s.EnergyUnits, Queues: s.Mapping.Queues}
	}
	if err := checkResolved(served, local); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	energy := slices.Clone(served)
	energy[1].EnergyUnits = math.Nextafter(energy[1].EnergyUnits, 0)
	if checkResolved(energy, local) == nil {
		t.Error("an energy one ulp off was accepted")
	}
	if checkResolved(served[:1], local) == nil {
		t.Error("a missing group was accepted")
	}
}
