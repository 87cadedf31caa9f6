package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"magma"
	"magma/internal/serve"
)

// A workload is one named set of inputs the benchmark runs, with the
// system that serves them. Every input is a pure function of the run's
// seed and the op index, so a seed reproduces its inputs exactly. The
// ops cycle through a fixed set of inputs, each sent many times in a
// window, so that the benchmark can report each input's best run (see
// bestRuns).
type workload struct {
	name string
	// qualityOps is the op prefix over which quality_vs_herald and the
	// result digest are taken, so both are fixed for a seed however many
	// ops fit in the measured window.
	qualityOps int
	newSystem  func(cfg config) (system, error)
}

// Input pools: how many distinct inputs a workload cycles through. Each
// is sent several times in a 25-second window on one CPU (about 7 times
// for search-g100, 20 for search-g16, 40 for fleet-distinct).
const (
	searchG100Pool = 40
	searchG16Pool  = 100
	fleetPool      = 100
)

var workloads = []workload{
	{
		// The paper's headline point (§VI-B): one 100-job Mix group per
		// op at the full 10000-sample budget. Simulate and Tell dominate a
		// generation; about one candidate in ten is a duplicate.
		name: "search-g100", qualityOps: searchG100Pool,
		newSystem: func(cfg config) (system, error) { return newSearchSystem(cfg, 100, searchG100Pool), nil },
	},
	{
		// The same budget over 16-job groups: 625 tiny generations per
		// search, where fixed per-generation costs and a highly redundant
		// search stream (about 70% duplicates) dominate.
		name: "search-g16", qualityOps: searchG16Pool,
		newSystem: func(cfg config) (system, error) { return newSearchSystem(cfg, 16, searchG16Pool), nil },
	},
	{
		// Repeated traffic on one long-lived shard: Zipf-popular
		// generate-spec bodies whose 48 problems fit the engine's default
		// 64-problem bound, so cross-request reuse carries the work.
		name: "serve-repeat", qualityOps: 1000,
		newSystem: func(cfg config) (system, error) { return newServeSystem(cfg, repeatTraffic(cfg.seed)) },
	},
	{
		// The cold path through a router and three shards: inline
		// workloads fanned out per group, each sent again only after every
		// shard has evicted its problems, so no op finds anything cached.
		name: "fleet-distinct", qualityOps: fleetPool,
		newSystem: func(cfg config) (system, error) { return newServeSystem(cfg, fleetTraffic(cfg.seed)) },
	},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Input streams: each kind of derived value draws from its own stream so
// that adding one kind never shifts another.
const (
	streamSearch uint64 = iota + 1
	streamWarmup
	streamRepeatWorkload
	streamRepeatPick
	streamRepeatSeed
	streamFleet
	streamFleetSeed
	streamWarmupSeed
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive is the i-th 64-bit value of a stream under the run's seed.
func derive(seed int64, stream uint64, i int) uint64 {
	return mix64(mix64(uint64(seed)^stream*0x9e3779b97f4a7c15) + uint64(i))
}

// inputSeed is a derived value small enough to read well in a request
// body and in logs.
func inputSeed(seed int64, stream uint64, i int) int64 {
	return int64(derive(seed, stream, i) % (1 << 31))
}

// tasks cycles through every task class so the served workloads cover
// all four model pools.
var tasks = []magma.Task{magma.Mix, magma.Vision, magma.Language, magma.Recommendation}

// taskWire is the request-body name of a task class.
func taskWire(t magma.Task) string {
	switch t {
	case magma.Vision:
		return "Vision"
	case magma.Language:
		return "Lang"
	case magma.Recommendation:
		return "Recom"
	}
	return "Mix"
}

// opSpec is one served op: the workload it schedules and its search
// options. inline ships the generated workload in the body; otherwise
// the body carries the generator spec and the server generates it.
type opSpec struct {
	wl     magma.WorkloadConfig
	inline bool
	search serve.RequestOptions
}

// key identifies the body an opSpec builds.
func (s opSpec) key() string {
	return fmt.Sprintf("%v/%d/%d/%d/%v/%d/%d", s.wl.Task, s.wl.NumJobs, s.wl.GroupSize, s.wl.Seed, s.inline, s.search.BudgetPerGroup, s.search.Seed)
}

// body is the op's request body.
func (s opSpec) body() ([]byte, error) {
	req := serve.OptimizeRequest{Platform: "S2", Options: s.search}
	if s.inline {
		wl, err := magma.GenerateWorkload(s.wl)
		if err != nil {
			return nil, err
		}
		var inline bytes.Buffer
		if err := wl.WriteJSON(&inline); err != nil {
			return nil, err
		}
		req.Workload = inline.Bytes()
	} else {
		req.Generate = &serve.GenerateSpec{
			Task:      taskWire(s.wl.Task),
			NumJobs:   s.wl.NumJobs,
			GroupSize: s.wl.GroupSize,
			Seed:      s.wl.Seed,
		}
	}
	return json.Marshal(req)
}

// platform is the platform every served op names (S2 at its default
// 16 GB/s).
func platform() magma.Platform { return magma.PlatformS2() }

// traffic describes a served workload: its topology and its ops.
type traffic struct {
	shards int // 0: one shard, no router
	spec   func(i int) opSpec
	// warmup holds the ops sent serially before the first timed op.
	warmup []opSpec
	// resolveEvery > 0 solves every resolveEvery-th distinct body again,
	// from the first, on a fresh single Solver, whose result must match
	// the served one exactly.
	resolveEvery int
}

const (
	repeatWorkloads = 24
	repeatJobs      = 64
	repeatGroup     = 32
	repeatBudget    = 2000
	repeatSeeds     = 4
	repeatZipfS     = 1.1

	fleetShards = 3
	fleetJobs   = 64
	fleetGroup  = 16
	fleetBudget = 640
	fleetWarmup = 4
)

// repeatTraffic is serve-repeat: generate-spec bodies over 24 workloads
// (64 jobs in groups of 32, task classes cycling), picked Zipf(1.1) by
// popularity, each with a search seed uniform in 0..3. The warm-up
// sends all 96 bodies once, so the window starts in the steady state
// the workload is about: every table built, every body seen.
func repeatTraffic(seed int64) traffic {
	var cdf [repeatWorkloads]float64
	var total float64
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), repeatZipfS)
		cdf[r] = total
	}
	spec := func(k, searchSeed int) opSpec {
		return opSpec{
			wl: magma.WorkloadConfig{
				Task:      tasks[k%len(tasks)],
				NumJobs:   repeatJobs,
				GroupSize: repeatGroup,
				Seed:      inputSeed(seed, streamRepeatWorkload, k),
			},
			search: serve.RequestOptions{BudgetPerGroup: repeatBudget, Seed: int64(searchSeed)},
		}
	}
	t := traffic{
		spec: func(i int) opSpec {
			u := float64(derive(seed, streamRepeatPick, i)>>11) / (1 << 53) * total
			k := 0
			for k < repeatWorkloads-1 && cdf[k] <= u {
				k++
			}
			return spec(k, int(derive(seed, streamRepeatSeed, i)%repeatSeeds))
		},
	}
	for k := 0; k < repeatWorkloads; k++ {
		for searchSeed := 0; searchSeed < repeatSeeds; searchSeed++ {
			t.warmup = append(t.warmup, spec(k, searchSeed))
		}
	}
	return t
}

// fleetTraffic is fleet-distinct: each op is a 64-job workload sent
// inline, split into four 16-job groups that the router fans out over
// three shards. The ops cycle through fleetPool workloads, whose 400
// problems are over twice what the three shards' default 64-problem
// bounds hold, so each shard has evicted a workload's problems before it
// comes round again: every op builds its tables and finds no
// cross-request hit.
func fleetTraffic(seed int64) traffic {
	spec := func(wlStream, seedStream uint64, i int) opSpec {
		return opSpec{
			wl: magma.WorkloadConfig{
				Task:      tasks[i%len(tasks)],
				NumJobs:   fleetJobs,
				GroupSize: fleetGroup,
				Seed:      inputSeed(seed, wlStream, i),
			},
			inline: true,
			search: serve.RequestOptions{BudgetPerGroup: fleetBudget, Seed: inputSeed(seed, seedStream, i)},
		}
	}
	t := traffic{
		shards:       fleetShards,
		spec:         func(i int) opSpec { return spec(streamFleet, streamFleetSeed, i%fleetPool) },
		resolveEvery: 5,
	}
	for k := 0; k < fleetWarmup; k++ {
		t.warmup = append(t.warmup, spec(streamWarmup, streamWarmupSeed, k))
	}
	return t
}
