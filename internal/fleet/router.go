package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/m3e"
	"magma/internal/serve"
)

// maxBody mirrors the shard's request-body bound.
const maxBody = 16 << 20

// maxFanOut bounds the sub-requests one fanned-out request keeps in
// flight. A small body can generate thousands of groups; without a bound
// each would hold its own connection at once. It matches the pooled
// connections per shard, so the forwards reuse them instead of dialing.
const maxFanOut = 64

// Config tunes the router.
type Config struct {
	// MaxAttempts bounds how often one forwarded sub-request is tried
	// against its owning shard (first attempt + retries); 0 means 3.
	// Ownership never moves on failure — a dead shard fails its own
	// requests with 502 while every other shard keeps serving — because
	// rerouting would split a problem's cache state across shards.
	MaxAttempts int
	// RetryBackoff is the delay after a transport-level failure before
	// the next attempt, doubling per attempt; 0 means 100ms.
	RetryBackoff time.Duration
	// Transport overrides the forwarding transport. The default is a
	// keep-alive transport sized for a small fleet (idle connections per
	// shard stay pooled instead of re-dialing per forward).
	Transport http.RoundTripper
}

// RouterStats counts the router's own traffic (the shard engines keep
// their own counters; GET /stats aggregates both).
type RouterStats struct {
	// Requests counts /optimize requests accepted for routing.
	Requests uint64 `json:"requests"`
	// Forwarded counts sub-requests sent to shards (≥ Requests: a
	// fanned-out request forwards once per group).
	Forwarded uint64 `json:"forwarded"`
	// FanOuts counts requests split across shards per group.
	FanOuts uint64 `json:"fan_outs"`
	// Retries counts transport-level retry attempts (dial failures,
	// injected shard-down faults) — the only retries the router makes;
	// ShardErrors the sub-requests that exhausted their attempts and
	// failed 502.
	Retries     uint64 `json:"retries"`
	ShardErrors uint64 `json:"shard_errors"`
	// Retried429 always reads 0 and is not on the wire: the router
	// relays every shard reply, a 429 included, without retrying. It
	// stays for the benchmark harness, which compiles against it.
	Retried429 uint64 `json:"-"`
}

// Router is the fleet's HTTP front end: it owns no Solver, only the
// shard topology and a shared forwarding client.
type Router struct {
	shards []Shard
	cfg    Config
	client *http.Client

	requests    atomic.Uint64
	forwarded   atomic.Uint64
	fanOuts     atomic.Uint64
	retries     atomic.Uint64
	shardErrors atomic.Uint64
}

// NewRouter builds a router over the shard set.
func NewRouter(shards []Shard, cfg Config) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards")
	}
	seen := map[string]bool{}
	for _, sh := range shards {
		if sh.Name == "" || sh.URL == "" {
			return nil, fmt.Errorf("fleet: shard with empty name or URL")
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	transport := cfg.Transport
	if transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		// Searches run for seconds per forward, so a handful of pooled
		// connections per shard covers heavy concurrency without
		// per-request dials.
		t.MaxIdleConns = 256
		t.MaxIdleConnsPerHost = maxFanOut
		t.IdleConnTimeout = 90 * time.Second
		transport = t
	}
	return &Router{
		shards: append([]Shard(nil), shards...),
		cfg:    cfg,
		client: &http.Client{Transport: transport},
	}, nil
}

// Stats snapshots the router's own counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Requests:    rt.requests.Load(),
		Forwarded:   rt.forwarded.Load(),
		FanOuts:     rt.fanOuts.Load(),
		Retries:     rt.retries.Load(),
		ShardErrors: rt.shardErrors.Load(),
	}
}

// Handler returns the router's mux. The surface intentionally mirrors a
// shard's synchronous endpoints; the async job API stays shard-local
// (job ids name state on one Solver) and is not routed.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", rt.handleOptimize)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/jobs", rt.handleJobs)
	mux.HandleFunc("/jobs/", rt.handleJobs)
	return mux
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	serve.WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotImplemented,
		"async jobs are shard-local and not routed; POST /optimize on the router, or submit jobs to a shard directly")
}

// forwardResult is one completed sub-request: a shard's verbatim reply,
// or the transport error that survived every retry.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
	err    error
	shard  Shard
}

// sleepCtx sleeps d or until the context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// forward POSTs body to the shard's path with bounded retries: transport
// failures (and injected shard-down faults) back off and retry. Any
// response, whatever its status, is the shard's answer and is returned
// verbatim.
func (rt *Router) forward(ctx context.Context, sh Shard, path string, body []byte) forwardResult {
	var lastErr error
	for attempt := 1; attempt <= rt.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			rt.retries.Add(1)
			if err := sleepCtx(ctx, rt.cfg.RetryBackoff<<(attempt-2)); err != nil {
				return forwardResult{err: err, shard: sh}
			}
		}
		// Fault points: FleetForward delays (slow shard), FleetShardDown
		// errors (unreachable shard) — both indistinguishable from the
		// real network conditions at this call site.
		err := fault.Hit(fault.FleetForward)
		if err == nil {
			err = fault.Hit(fault.FleetShardDown)
		}
		var resp *http.Response
		if err == nil {
			var req *http.Request
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, sh.URL+path, bytes.NewReader(body))
			if err != nil {
				return forwardResult{err: err, shard: sh}
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err = rt.client.Do(req)
		}
		if err != nil {
			if ctx.Err() != nil {
				return forwardResult{err: ctx.Err(), shard: sh}
			}
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return forwardResult{status: resp.StatusCode, header: resp.Header, body: respBody, shard: sh}
	}
	rt.shardErrors.Add(1)
	return forwardResult{err: lastErr, shard: sh}
}

// writeForwarded relays a shard's reply (or its terminal transport
// failure) to the client. A shard that stayed unreachable through every
// retry is a 502 with a machine-readable body; the fleet keeps serving
// every other shard's problems.
func (rt *Router) writeForwarded(w http.ResponseWriter, r *http.Request, res forwardResult) {
	if res.err != nil {
		if r.Context().Err() != nil {
			writeErr(w, serve.StatusClientClosedRequest, "client closed request: %v", res.err)
			return
		}
		serve.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error": fmt.Sprintf("shard %s unreachable after %d attempts: %v", res.shard.Name, rt.cfg.MaxAttempts, res.err),
			"code":  "shard_unavailable",
			"shard": res.shard.Name,
		})
		return
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	var req serve.OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// Resolve the workload and platform exactly as the shard will: the
	// router needs the concrete groups only to hash their identities.
	wl, pf, err := serve.ResolveTarget(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.requests.Add(1)

	owners := make([]int, len(wl.Groups))
	split := false
	for gi, g := range wl.Groups {
		owners[gi] = Owner(rt.shards, encoding.TableIdentity(g, pf))
		if owners[gi] != owners[0] {
			split = true
		}
	}
	// Warm-started streams chain each group's search on its
	// predecessors' schedules; splitting would cut the chain, so the
	// whole stream runs on the first group's owner (cache locality is
	// then approximate for the other groups, correctness unaffected).
	if !split || req.Options.WarmStart {
		rt.forwarded.Add(1)
		rt.writeForwarded(w, r, rt.forward(r.Context(), rt.shards[owners[0]], "/optimize", body))
		return
	}
	rt.fanOuts.Add(1)

	// Per-group fan-out. Each sub-request carries exactly what the
	// shard's own stream loop would have used for that group: the seed
	// advances by group index and the budget is magma.GroupBudget over
	// the *original* group count — so the merged result is bit-identical
	// to the same request answered by one shard.
	results := make([]forwardResult, len(wl.Groups))
	var wg sync.WaitGroup
	slots := make(chan struct{}, maxFanOut)
	for gi, g := range wl.Groups {
		sub := req
		sub.Generate = nil
		sub.Options.Seed = req.Options.Seed + int64(gi)
		sub.Options.BudgetPerGroup = magma.GroupBudget(req.Options.BudgetPerGroup, len(wl.Groups), len(g.Jobs))
		var buf bytes.Buffer
		gw := magma.Workload{Name: wl.Name, Task: wl.Task, Groups: []magma.Group{{Index: 0, Jobs: g.Jobs}}}
		if err := gw.WriteJSON(&buf); err != nil {
			writeErr(w, http.StatusInternalServerError, "serializing group %d: %v", gi, err)
			return
		}
		sub.Workload = buf.Bytes()
		subBody, err := json.Marshal(sub)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "serializing group %d request: %v", gi, err)
			return
		}
		wg.Add(1)
		slots <- struct{}{}
		go func(gi int, sh Shard, body []byte) {
			defer func() { <-slots; wg.Done() }()
			rt.forwarded.Add(1)
			results[gi] = rt.forward(r.Context(), sh, "/optimize", body)
		}(gi, rt.shards[owners[gi]], subBody)
	}
	wg.Wait()

	// All-or-nothing: the first failing group (in group order) decides
	// the reply, so the client sees the same single-error contract a
	// shard gives — not a half-merged schedule.
	replies := make([]serve.OptimizeResponse, len(results))
	for gi, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			rt.writeForwarded(w, r, res)
			return
		}
		if err := json.Unmarshal(res.body, &replies[gi]); err != nil {
			writeErr(w, http.StatusBadGateway, "shard %s: undecodable response for group %d: %v", res.shard.Name, gi, err)
			return
		}
		if len(replies[gi].Groups) != 1 {
			writeErr(w, http.StatusBadGateway, "shard %s: %d groups in single-group response for group %d", res.shard.Name, len(replies[gi].Groups), gi)
			return
		}
	}
	merged, err := json.Marshal(rt.merge(wl.Name, owners, replies, start))
	if err != nil {
		// Totals summed past the float range leave a response JSON
		// cannot carry: the shards' replies were bad, not the request.
		writeErr(w, http.StatusBadGateway, "merging shard replies: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(merged, '\n'))
}

// merge reassembles per-group shard replies into one response: groups
// in original order, totals summed, cache counters aggregated with the
// rates recomputed over the sums, and the engine section aggregated
// over the distinct shards involved.
func (rt *Router) merge(name string, owners []int, replies []serve.OptimizeResponse, start time.Time) serve.OptimizeResponse {
	out := serve.OptimizeResponse{Workload: name, Platform: replies[0].Platform}
	var cache m3e.CacheStats
	engines := map[int]serve.EngineJSON{}
	for gi, sub := range replies {
		g := sub.Groups[0]
		g.Index = gi
		out.Groups = append(out.Groups, g)
		out.TotalGFLOPs += sub.TotalGFLOPs
		out.TotalSeconds += sub.TotalSeconds
		out.Partial = out.Partial || sub.Partial
		cache.Add(cacheStatsOf(sub.Cache))
		engines[owners[gi]] = sub.Engine
	}
	if out.TotalSeconds > 0 {
		out.ThroughputGFLOPs = out.TotalGFLOPs / out.TotalSeconds
	}
	out.Cache = serve.CacheJSONOf(cache)
	// Aggregate in group order, not map order: float sums are not
	// associative, so the merged rates must see the shards' views in a
	// fixed order to stay bit-identical run to run.
	owned := make([]int, 0, len(engines))
	for i := range engines {
		owned = append(owned, i)
	}
	sort.Ints(owned)
	views := make([]serve.EngineJSON, 0, len(engines))
	for _, i := range owned {
		views = append(views, engines[i])
	}
	out.Engine = aggregateEngine(views)
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	return out
}

// cacheStatsOf inverts the wire form back to raw counters so sums
// re-derive correct rates.
func cacheStatsOf(c serve.CacheJSON) m3e.CacheStats {
	return m3e.CacheStats{
		Hits: c.Hits, CrossHits: c.CrossHits,
		Misses: c.Misses, Invalid: c.Invalid,
		BoundChecked: c.BoundChecked, BoundPruned: c.BoundPruned,
	}
}

// aggregateEngine sums shard engine views; rate fields are recomputed
// over the summed counters, never averaged.
func aggregateEngine(views []serve.EngineJSON) serve.EngineJSON {
	var agg serve.EngineJSON
	var cache m3e.CacheStats
	for _, v := range views {
		agg.Searches += v.Searches
		agg.Problems += v.Problems
		agg.TablesBuilt += v.TablesBuilt
		agg.TablesReused += v.TablesReused
		agg.ProblemsEvicted += v.ProblemsEvicted
		agg.SnapshotsTaken += v.SnapshotsTaken
		agg.ProblemsRestored += v.ProblemsRestored
		agg.EntriesRestored += v.EntriesRestored
		agg.MapperPanics += v.MapperPanics
		agg.MemoHits += v.MemoHits
		cache.Add(cacheStatsOf(v.Cache))
	}
	agg.Cache = serve.CacheJSONOf(cache)
	agg.CrossRequestHitRate = cache.CrossHitRate()
	return agg
}

// ShardStatus is one shard's row in the router's /stats and /healthz.
type ShardStatus struct {
	Name    string            `json:"name"`
	URL     string            `json:"url"`
	Healthy bool              `json:"healthy"`
	Error   string            `json:"error,omitempty"`
	Stats   *serve.EngineJSON `json:"stats,omitempty"`
}

// StatsResponse is the router's GET /stats reply: the fleet-wide
// aggregate plus the per-shard breakdown. Sum of per-shard `problems`
// equalling the distinct problem count across the fleet is the
// disjoint-ownership invariant CI gates on.
type StatsResponse struct {
	Shards    int              `json:"shards"`
	Healthy   int              `json:"healthy"`
	Aggregate serve.EngineJSON `json:"aggregate"`
	PerShard  []ShardStatus    `json:"per_shard"`
	Router    RouterStats      `json:"router"`
}

// probe GETs path on every shard concurrently under one timeout and
// returns a row per shard. A shard is healthy only when it answers 200
// and read accepts the body; any other answer is the row's Error.
func (rt *Router) probe(ctx context.Context, path string, timeout time.Duration, read func(io.Reader, *ShardStatus) error) []ShardStatus {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	rows := make([]ShardStatus, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		rows[i] = ShardStatus{Name: sh.Name, URL: sh.URL}
		wg.Add(1)
		go func(st *ShardStatus) {
			defer wg.Done()
			if err := rt.probeShard(ctx, st, path, read); err != nil {
				st.Error = err.Error()
				return
			}
			st.Healthy = true
		}(&rows[i])
	}
	wg.Wait()
	return rows
}

func (rt *Router) probeShard(ctx context.Context, st *ShardStatus, path string, read func(io.Reader, *ShardStatus) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return read(io.LimitReader(resp.Body, maxBody), st)
}

// collectStats fetches every shard's /stats and sums the healthy ones.
func (rt *Router) collectStats(ctx context.Context) StatsResponse {
	out := StatsResponse{Shards: len(rt.shards), Router: rt.Stats()}
	out.PerShard = rt.probe(ctx, "/stats", 5*time.Second, func(body io.Reader, st *ShardStatus) error {
		var ej serve.EngineJSON
		if err := json.NewDecoder(body).Decode(&ej); err != nil {
			return err
		}
		st.Stats = &ej
		return nil
	})
	var views []serve.EngineJSON
	for _, st := range out.PerShard {
		if st.Healthy {
			out.Healthy++
			views = append(views, *st.Stats)
		}
	}
	out.Aggregate = aggregateEngine(views)
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	serve.WriteJSON(w, http.StatusOK, rt.collectStats(r.Context()))
}

// handleHealthz probes every shard: 200 only when the whole fleet is
// reachable (readiness), 503 with the per-shard detail otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	statuses := rt.probe(r.Context(), "/healthz", 2*time.Second, func(body io.Reader, _ *ShardStatus) error {
		_, err := io.Copy(io.Discard, io.LimitReader(body, 4096))
		return err
	})
	healthy := 0
	for _, st := range statuses {
		if st.Healthy {
			healthy++
		}
	}
	code := http.StatusOK
	if healthy < len(rt.shards) {
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"ok":      healthy == len(rt.shards),
		"shards":  len(rt.shards),
		"healthy": healthy,
		"detail":  statuses,
	})
}
