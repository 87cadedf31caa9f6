package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/fleet"
	"magma/internal/serve"
)

// ServeReport is the schema of the serve-mode reports: one
// shared-Solver HTTP load test. With -fleet the top-level figures
// describe the fleet run.
type ServeReport struct {
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Requests       int     `json:"requests"`
	Clients        int     `json:"clients"`
	DistinctWLs    int     `json:"distinct_workloads"`
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// CrossRequestHitRate is the fraction of evaluations answered by a
	// *different* search: the genomes of every memo answer.
	CrossRequestHitRate float64 `json:"cross_request_hit_rate"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	Searches            uint64  `json:"searches"`
	TablesBuilt         uint64  `json:"tables_built"`
	TablesReused        uint64  `json:"tables_reused"`
	PoolsBuilt          uint64  `json:"pools_built"`
	PoolsReused         uint64  `json:"pools_reused"`
	Coalesced           uint64  `json:"coalesced"` // requests answered by an in-flight twin's search
	MemoHits            uint64  `json:"memo_hits"` // group searches answered from their problem's memo of finished searches
	// Latency is per-request wall time as the load generator saw it.
	Latency *LatencyJSON `json:"latency_ms,omitempty"`
	Chaos   *ChaosReport `json:"chaos,omitempty"` // -chaos only
	Fleet   *FleetReport `json:"fleet,omitempty"` // -fleet only
}

// LatencyJSON is a per-request latency summary in milliseconds
// (nearest-rank percentiles over every completed request).
type LatencyJSON struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// FleetReport is the -fleet section.
type FleetReport struct {
	Shards int `json:"shards"`
	// DistinctProblems counts the mix's distinct TableIdentities,
	// computed locally; ProblemsSum is what the shards report holding.
	// They are equal exactly when every identity lives on one shard.
	DistinctProblems  int               `json:"distinct_problems"`
	ProblemsSum       int               `json:"problems_sum"`
	OwnershipDisjoint bool              `json:"ownership_disjoint"`
	Router            fleet.RouterStats `json:"router"`
	PerShard          []ShardBench      `json:"per_shard"`
	Baseline          BaselineBench     `json:"single_node_baseline"`
}

// ShardBench is one shard's slice of the fleet run; RequestsPerSec
// counts the sub-requests forwarded to it.
type ShardBench struct {
	Name                string  `json:"name"`
	RequestsPerSec      float64 `json:"requests_per_sec"`
	Searches            uint64  `json:"searches"`
	Problems            int     `json:"problems"`
	CrossRequestHitRate float64 `json:"cross_request_hit_rate"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
}

// BaselineBench is the single-node run of the same mix.
type BaselineBench struct {
	RequestsPerSec      float64      `json:"requests_per_sec"`
	CrossRequestHitRate float64      `json:"cross_request_hit_rate"`
	CacheHitRate        float64      `json:"cache_hit_rate"`
	Latency             *LatencyJSON `json:"latency_ms,omitempty"`
}

// ChaosReport counts what the fault-injection run survived.
type ChaosReport struct {
	// MapperPanics counts recovered mapper panics, Failed500s the
	// requests that saw one (coalesced followers share a panic), and
	// Succeeded the requests that still completed.
	MapperPanics uint64 `json:"mapper_panics"`
	Failed500s   int64  `json:"failed_500s"`
	Succeeded    int64  `json:"succeeded"`
	// Batches and kernel passes slowed by the delay hooks, and passes
	// through the sim.kernel fault point.
	DelayedSimulations uint64 `json:"delayed_simulations"`
	KernelRuns         uint64 `json:"kernel_runs"`
	KernelStalls       uint64 `json:"kernel_stalls"`
	// Snapshot churn under injected write errors, and whether the
	// surviving file still restores into a fresh Solver.
	SnapshotAttempts  int    `json:"snapshot_attempts"`
	SnapshotFailures  int    `json:"snapshot_failures"`
	SnapshotsTaken    uint64 `json:"snapshots_taken"`
	SnapshotRestoreOK bool   `json:"snapshot_restore_ok"`
	ProblemsRestored  uint64 `json:"problems_restored"`
}

// serveLoadTest fires the repeated-workload mix at the HTTP handler
// over one shared Solver, with fault injection armed under chaos.
func serveLoadTest(requests, clients int, chaos bool) (*ServeReport, error) {
	solver := magma.NewSolver(magma.SolverOptions{})
	ts := httptest.NewServer(serve.New(solver).Handler())
	defer ts.Close()

	var (
		snapAttempts, snapFailures int
		snapPath                   string
		stopSnaps                  = func() {}
	)
	// snapshot writes one snapshot, counting attempts and failures.
	snapshot := func() error {
		snapAttempts++
		err := solver.SnapshotFile(snapPath)
		if err != nil {
			snapFailures++
		}
		return err
	}
	if chaos {
		fault.Reset()
		defer fault.Reset()
		// A mapper panic every 97 generations: each fails one request
		// with a 500 while the server keeps serving.
		fault.Enable(fault.M3EAsk, fault.Every(97, func() error {
			panic("chaos: injected mapper panic")
		}))
		// Stalled batches and kernel passes (delays, not errors).
		fault.Enable(fault.M3ESimulate, fault.Every(512, func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}))
		fault.Enable(fault.SimKernel, fault.Every(512, func() error {
			time.Sleep(time.Millisecond)
			return nil
		}))
		// Every third snapshot write fails; the last durable one must
		// survive.
		fault.Enable(fault.PersistWrite, fault.Every(3, func() error {
			return errors.New("chaos: injected snapshot write error")
		}))
		dir, err := os.MkdirTemp("", "bench-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		snapPath = filepath.Join(dir, "solver.snap")
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					snapshot()
				}
			}
		}()
		stopSnaps = func() {
			close(quit)
			<-done
		}
	}

	specs := serveMixSpecs()
	client := newBenchClient()
	res, err := fireMix(client, ts.URL, specs, requests, clients, chaos)
	stopSnaps()
	if err != nil {
		return nil, err
	}
	if chaos {
		// A final snapshot, past the injected errors, so the restore
		// check has a durable file even if the ticker never fired.
		for i := 0; i < 4; i++ {
			if snapshot() == nil {
				break
			}
		}
	}
	var st serve.EngineJSON
	if err := getJSON(client, ts.URL+"/stats", &st); err != nil {
		return nil, err
	}
	rep := newServeReport(requests, clients, res, st)
	if chaos {
		ch := &ChaosReport{
			MapperPanics:       st.MapperPanics,
			Failed500s:         res.failed500s,
			Succeeded:          res.succeeded,
			DelayedSimulations: fault.Hits(fault.M3ESimulate) / 512,
			KernelRuns:         fault.Hits(fault.SimKernel),
			KernelStalls:       fault.Hits(fault.SimKernel) / 512,
			SnapshotAttempts:   snapAttempts,
			SnapshotFailures:   snapFailures,
			SnapshotsTaken:     st.SnapshotsTaken,
		}
		// The surviving snapshot must still restore cleanly: write-error
		// injection may abort snapshots but must never corrupt the file.
		if ch.SnapshotsTaken > 0 {
			fresh := magma.NewSolver(magma.SolverOptions{})
			if err := fresh.RestoreFile(snapPath); err == nil {
				ch.SnapshotRestoreOK = true
				ch.ProblemsRestored = fresh.Stats().ProblemsRestored
			}
		}
		rep.Chaos = ch
	}
	return rep, nil
}

// newServeReport fills the fields every serve-mode report shares from
// one load-generation run and the serving engine's /stats.
func newServeReport(requests, clients int, res mixResult, st serve.EngineJSON) *ServeReport {
	return &ServeReport{
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Requests:            requests,
		Clients:             clients,
		DistinctWLs:         len(serveMixSpecs()),
		Seconds:             res.seconds,
		RequestsPerSec:      float64(requests) / res.seconds,
		CrossRequestHitRate: st.CrossRequestHitRate,
		CacheHitRate:        st.Cache.HitRate,
		Searches:            st.Searches,
		TablesBuilt:         st.TablesBuilt,
		TablesReused:        st.TablesReused,
		PoolsBuilt:          st.PoolsBuilt,
		PoolsReused:         st.PoolsReused,
		Coalesced:           st.Coalesced,
		MemoHits:            st.MemoHits,
		Latency:             latencyOf(res.latencies),
	}
}

// getJSON decodes the JSON body of a GET.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// serveMixSpecs is the repeated-workload request mix every serve-mode
// run fires: three distinct workloads cycling through the stream, so
// every request beyond the first three re-asks a problem the serving
// engine already holds and repeats are answered from its memo.
func serveMixSpecs() []string {
	return []string{
		`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":11},"platform":"S2","options":{"budget_per_group":300,"seed":1}}`,
		`{"generate":{"task":"Vision","num_jobs":32,"group_size":16,"seed":12},"platform":"S2","options":{"budget_per_group":300,"seed":2}}`,
		`{"generate":{"task":"Lang","num_jobs":32,"group_size":16,"seed":13},"platform":"S1","options":{"budget_per_group":300,"seed":3}}`,
	}
}

// newBenchClient builds the keep-alive load-generation client, so
// steady-state requests do not pay a dial each.
func newBenchClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: tr}
}

// mixResult is one load-generation run: wall time, per-request
// latencies in milliseconds, and the 200/500 split.
type mixResult struct {
	seconds    float64
	latencies  []float64
	succeeded  int64
	failed500s int64
}

// fireMix drives the repeated-workload mix at url from `clients`
// concurrent clients over one shared keep-alive HTTP client. With
// allow500, injected-fault 500s are counted instead of fatal (the
// -chaos contract: a recovered panic fails one request, not the run).
func fireMix(client *http.Client, url string, specs []string, requests, clients int, allow500 bool) (mixResult, error) {
	var (
		wg         sync.WaitGroup
		errs       = make([]error, clients)
		next       atomic.Int64
		succeeded  atomic.Int64
		failed500s atomic.Int64
	)
	latencies := make([]float64, requests)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url+"/optimize", "application/json",
					strings.NewReader(specs[i%len(specs)]))
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				switch {
				case resp.StatusCode == http.StatusOK:
					succeeded.Add(1)
				case allow500 && resp.StatusCode == http.StatusInternalServerError:
					// An injected mapper panic failed this request; the
					// server recovered and the next request proceeds.
					failed500s.Add(1)
				default:
					errs[c] = fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res := mixResult{
		seconds:    time.Since(start).Seconds(),
		latencies:  latencies,
		succeeded:  succeeded.Load(),
		failed500s: failed500s.Load(),
	}
	return res, errors.Join(errs...)
}

// latencyOf summarizes per-request latencies into nearest-rank
// percentiles over the sorted sample.
func latencyOf(ms []float64) *LatencyJSON {
	if len(ms) == 0 {
		return nil
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return &LatencyJSON{P50: rank(0.50), P95: rank(0.95), P99: rank(0.99), Max: s[len(s)-1]}
}

// fleetLoadTest drives the mix through a single node (the baseline),
// then through a rendezvous router over nShards in-process shards, and
// recomputes every group's owner locally for the ownership check.
func fleetLoadTest(requests, clients, nShards int) (*ServeReport, error) {
	specs := serveMixSpecs()
	client := newBenchClient()

	// Baseline: one node takes the whole mix.
	baseTS := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
	baseRes, err := fireMix(client, baseTS.URL, specs, requests, clients, false)
	var base serve.EngineJSON
	if err == nil {
		err = getJSON(client, baseTS.URL+"/stats", &base)
	}
	baseTS.Close()
	if err != nil {
		return nil, fmt.Errorf("single-node baseline: %w", err)
	}

	// The fleet: nShards fresh shard servers and the router in front.
	shards := make([]fleet.Shard, nShards)
	for i := range shards {
		ts := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
		defer ts.Close()
		shards[i] = fleet.Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	router, err := fleet.NewRouter(shards, fleet.Config{})
	if err != nil {
		return nil, err
	}
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	fleetRes, err := fireMix(client, rts.URL, specs, requests, clients, false)
	if err != nil {
		return nil, fmt.Errorf("fleet run: %w", err)
	}

	// Recompute the routing locally: the distinct problems in the mix,
	// each group's owner, and how many forwarded sub-requests each shard
	// absorbed (fan-out splits a request into one sub-request per group).
	distinct := map[encoding.TableKey]bool{}
	subsPerShard := make([]int, nShards)
	for si, spec := range specs {
		var req serve.OptimizeRequest
		if err := json.Unmarshal([]byte(spec), &req); err != nil {
			return nil, err
		}
		wl, pf, err := serve.ResolveTarget(&req)
		if err != nil {
			return nil, err
		}
		owners := make([]int, len(wl.Groups))
		split := false
		for gi, g := range wl.Groups {
			key := encoding.TableIdentity(g, pf)
			owners[gi] = fleet.Owner(shards, key)
			distinct[key] = true
			split = split || owners[gi] != owners[0]
		}
		if !split {
			owners = owners[:1] // the whole request goes to its one owner
		}
		fired := requests / len(specs)
		if si < requests%len(specs) {
			fired++
		}
		for _, o := range owners {
			subsPerShard[o] += fired
		}
	}

	var stats fleet.StatsResponse
	if err := getJSON(client, rts.URL+"/stats", &stats); err != nil {
		return nil, err
	}
	fr := &FleetReport{
		Shards:           nShards,
		DistinctProblems: len(distinct),
		Router:           stats.Router,
		Baseline: BaselineBench{
			RequestsPerSec:      float64(requests) / baseRes.seconds,
			CrossRequestHitRate: base.CrossRequestHitRate,
			CacheHitRate:        base.Cache.HitRate,
			Latency:             latencyOf(baseRes.latencies),
		},
	}
	for i, st := range stats.PerShard {
		sb := ShardBench{Name: st.Name, RequestsPerSec: float64(subsPerShard[i]) / fleetRes.seconds}
		if st.Stats != nil {
			sb.Searches = st.Stats.Searches
			sb.Problems = st.Stats.Problems
			sb.CrossRequestHitRate = st.Stats.CrossRequestHitRate
			sb.CacheHitRate = st.Stats.Cache.HitRate
			fr.ProblemsSum += st.Stats.Problems
		}
		fr.PerShard = append(fr.PerShard, sb)
	}
	fr.OwnershipDisjoint = fr.ProblemsSum == fr.DistinctProblems
	rep := newServeReport(requests, clients, fleetRes, stats.Aggregate)
	rep.Fleet = fr
	return rep, nil
}
