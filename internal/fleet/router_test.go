package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/serve"
)

// newFleet stands up n real shard servers (each with its own Solver)
// plus a router over them, all in-process.
func newFleet(t *testing.T, n int, cfg Config) ([]Shard, *Router, *httptest.Server) {
	t.Helper()
	shards := make([]Shard, n)
	for i := range shards {
		ts := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	rt, err := NewRouter(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return shards, rt, rts
}

func postOptimize(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// ownersOf resolves the request exactly as the router does and returns
// each group's owner index.
func ownersOf(t *testing.T, shards []Shard, body string) []int {
	t.Helper()
	var req serve.OptimizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	wl, pf, err := serve.ResolveTarget(&req)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, len(wl.Groups))
	for gi, g := range wl.Groups {
		owners[gi] = Owner(shards, encoding.TableIdentity(g, pf))
	}
	return owners
}

// TestRouterRejectsRemovedBoundOption: the router decodes requests as
// strictly as a shard, so each removed option (options.bound and
// options.workers) is a 400 naming the field before anything is
// forwarded.
func TestRouterRejectsRemovedBoundOption(t *testing.T) {
	_, _, rts := newFleet(t, 2, Config{})
	for _, field := range []string{"bound", "workers"} {
		body := fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":1},"options":{%q:1}}`, field)
		resp, raw := postOptimize(t, rts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", field, resp.StatusCode, raw)
		}
		if !bytes.Contains(raw, []byte(fmt.Sprintf(`unknown field \"%s\"`, field))) {
			t.Errorf("error %q does not name the %s field", raw, field)
		}
	}
}

// TestRouterRefusesTinyGroups: a generated request whose groups have
// fewer jobs than the platform has cores is a 400 before any forward;
// every shard would refuse each group, so fanning 65536 one-job groups
// out would cost 65536 sub-requests for nothing.
func TestRouterRefusesTinyGroups(t *testing.T) {
	var served atomic.Int64
	shards := make([]Shard, 3)
	for i := range shards {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			served.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	rt, err := NewRouter(shards, Config{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	resp, raw := postOptimize(t, rts.URL, `{"generate":{"task":"Mix","num_jobs":65536,"group_size":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("fewer than the 4 cores")) {
		t.Errorf("error %q does not name the core count", raw)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("shards served %d forwards, want 0", n)
	}
	if st := rt.Stats(); st.Forwarded != 0 || st.FanOuts != 0 {
		t.Errorf("router stats %+v, want no forward and no fan-out", st)
	}
}

// TestRouterFanOutBitIdentical: a multi-group request split across
// shards must merge to exactly the answer one shard gives for the whole
// request — same schedules, same ordering, same totals. This is the
// routing invariant: the fan-out rewrites seeds and budgets to what the
// single-node stream loop would have derived per group.
func TestRouterFanOutBitIdentical(t *testing.T) {
	shards, rt, rts := newFleet(t, 3, Config{})

	// Find a generated workload whose groups span at least two shards
	// (ownership is content-hash determined, so probe a few seeds).
	var body string
	for seed := int64(1); seed <= 32; seed++ {
		cand := fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":48,"group_size":16,"seed":%d},"platform":"S2","options":{"budget_per_group":350,"seed":5}}`, seed)
		owners := ownersOf(t, shards, cand)
		if len(owners) >= 2 {
			for _, o := range owners[1:] {
				if o != owners[0] {
					body = cand
					break
				}
			}
		}
		if body != "" {
			break
		}
	}
	if body == "" {
		t.Fatal("no probed workload spans two shards")
	}

	single := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
	defer single.Close()
	resp1, b1 := postOptimize(t, single.URL, body)
	respN, bN := postOptimize(t, rts.URL, body)
	if resp1.StatusCode != http.StatusOK || respN.StatusCode != http.StatusOK {
		t.Fatalf("status single=%d fleet=%d: %s", resp1.StatusCode, respN.StatusCode, bN)
	}
	var one, fleet serve.OptimizeResponse
	if err := json.Unmarshal(b1, &one); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bN, &fleet); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().FanOuts != 1 {
		t.Fatalf("expected one fan-out, router stats %+v", rt.Stats())
	}
	if len(fleet.Groups) != len(one.Groups) {
		t.Fatalf("group count: fleet %d vs single %d", len(fleet.Groups), len(one.Groups))
	}
	for i := range one.Groups {
		g1, gn := one.Groups[i], fleet.Groups[i]
		if gn.Index != i {
			t.Errorf("group %d: merged index %d", i, gn.Index)
		}
		if g1.Fitness != gn.Fitness || g1.MakespanCycles != gn.MakespanCycles ||
			g1.Mapper != gn.Mapper || !reflect.DeepEqual(g1.Queues, gn.Queues) {
			t.Errorf("group %d diverged: single {fit %v cyc %v} fleet {fit %v cyc %v}",
				i, g1.Fitness, g1.MakespanCycles, gn.Fitness, gn.MakespanCycles)
		}
	}
	if one.TotalGFLOPs != fleet.TotalGFLOPs || one.TotalSeconds != fleet.TotalSeconds {
		t.Errorf("totals diverged: single {%v %v} fleet {%v %v}",
			one.TotalGFLOPs, one.TotalSeconds, fleet.TotalGFLOPs, fleet.TotalSeconds)
	}
	if one.Workload != fleet.Workload || one.Platform != fleet.Platform {
		t.Errorf("metadata diverged: %q/%q vs %q/%q", one.Workload, one.Platform, fleet.Workload, fleet.Platform)
	}
}

// TestRouterSingleOwnerForwards: a request whose groups all hash to one
// shard is forwarded verbatim, not split.
func TestRouterSingleOwnerForwards(t *testing.T) {
	_, rt, rts := newFleet(t, 3, Config{})
	body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":3},"platform":"S2","options":{"budget_per_group":320,"seed":1}}`
	resp, b := postOptimize(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	st := rt.Stats()
	if st.FanOuts != 0 || st.Forwarded != 1 {
		t.Fatalf("single-group request should forward once unsplit: %+v", st)
	}
	var out serve.OptimizeResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 1 || len(out.Groups[0].Queues) == 0 {
		t.Fatalf("missing schedule in forwarded response: %s", b)
	}
}

// TestRouterRelaysShardErrors: any shard reply is the answer. A 429, a
// 422 or a 500 reaches the client with its status and body verbatim
// after exactly one forward; the router retries only a shard it cannot
// reach.
func TestRouterRelaysShardErrors(t *testing.T) {
	for _, tc := range []struct {
		status int
		body   string
	}{
		{http.StatusTooManyRequests, `{"error":"shedding","code":"overloaded","retry_after_ms":10}`},
		{http.StatusUnprocessableEntity, `{"error":"bad schedule"}`},
		{http.StatusInternalServerError, `{"error":"boom"}`},
	} {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			var calls atomic.Int64
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer shard.Close()
			rt, err := NewRouter([]Shard{{Name: "only", URL: shard.URL}}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()
			body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"platform":"S2","options":{"seed":1}}`
			resp, b := postOptimize(t, rts.URL, body)
			if resp.StatusCode != tc.status || string(b) != tc.body {
				t.Errorf("relayed %d %s, want %d %s", resp.StatusCode, b, tc.status, tc.body)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("shard saw %d calls, want 1", n)
			}
			if st := rt.Stats(); st.Retries != 0 || st.ShardErrors != 0 {
				t.Errorf("retries %d, shard errors %d; want 0, 0", st.Retries, st.ShardErrors)
			}
		})
	}
}

// TestRouterDeadShard: requests owned by an unreachable shard fail with
// a clean 502 JSON error; requests owned by live shards keep working.
func TestRouterDeadShard(t *testing.T) {
	live := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	shards := []Shard{{Name: "live", URL: live.URL}, {Name: "dead", URL: deadURL}}
	rt, err := NewRouter(shards, Config{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// Probe seeds until we hold one request owned by each shard.
	bodies := map[string]string{}
	for seed := int64(1); seed <= 64 && len(bodies) < 2; seed++ {
		body := fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":%d},"platform":"S2","options":{"budget_per_group":320,"seed":1}}`, seed)
		owner := shards[ownersOf(t, shards, body)[0]].Name
		if _, ok := bodies[owner]; !ok {
			bodies[owner] = body
		}
	}
	if len(bodies) < 2 {
		t.Fatal("no probed seed landed on each shard")
	}

	resp, b := postOptimize(t, rts.URL, bodies["dead"])
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-owned request: status %d, want 502: %s", resp.StatusCode, b)
	}
	var errBody struct {
		Code  string `json:"code"`
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal(b, &errBody); err != nil {
		t.Fatalf("502 body not JSON: %s", b)
	}
	if errBody.Code != "shard_unavailable" || errBody.Shard != "dead" {
		t.Fatalf("502 body %s, want code shard_unavailable on shard dead", b)
	}

	resp, b = postOptimize(t, rts.URL, bodies["live"])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-owned request after dead-shard failure: status %d: %s", resp.StatusCode, b)
	}
	if rt.Stats().ShardErrors != 1 {
		t.Fatalf("shard_errors = %d, want 1", rt.Stats().ShardErrors)
	}
}

// TestRouterShardDownFault: the fleet.shard-down injection point makes
// forwards fail like dial errors; the router's bounded retries ride out
// a transient outage.
func TestRouterShardDownFault(t *testing.T) {
	_, rt, rts := newFleet(t, 1, Config{MaxAttempts: 3, RetryBackoff: time.Millisecond})
	fault.Reset()
	defer fault.Reset()
	var calls atomic.Int64
	fault.Enable(fault.FleetShardDown, func() error {
		if calls.Add(1) <= 2 {
			return fmt.Errorf("injected shard outage")
		}
		return nil
	})
	body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":2},"platform":"S2","options":{"budget_per_group":320,"seed":1}}`
	resp, b := postOptimize(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d through transient outage: %s", resp.StatusCode, b)
	}
	if got := rt.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	// A permanent outage exhausts the attempts into a 502.
	calls.Store(-1 << 40)
	resp, b = postOptimize(t, rts.URL, body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d under permanent outage, want 502: %s", resp.StatusCode, b)
	}
}

// TestRouterSlowShardFault: the fleet.forward delay point slows
// forwards without breaking them.
func TestRouterSlowShardFault(t *testing.T) {
	_, _, rts := newFleet(t, 1, Config{})
	fault.Reset()
	defer fault.Reset()
	fault.Enable(fault.FleetForward, func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":2},"platform":"S2","options":{"budget_per_group":320,"seed":1}}`
	resp, b := postOptimize(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with slow-shard delay: %s", resp.StatusCode, b)
	}
	if fault.Hits(fault.FleetForward) == 0 {
		t.Fatal("delay point never fired")
	}
}

// TestRouterStatsAggregation drives a repeated mix through the fleet
// and checks the aggregated /stats: cross-request reuse shows up, and
// ownership is disjoint — per-shard problem counts sum to the distinct
// problem count (every TableIdentity lives on exactly one shard).
func TestRouterStatsAggregation(t *testing.T) {
	shards, _, rts := newFleet(t, 3, Config{})

	specs := make([]string, 4)
	distinct := map[encoding.TableKey]int{}
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":%d},"platform":"S2","options":{"budget_per_group":320,"seed":1}}`, 21+i)
		var req serve.OptimizeRequest
		if err := json.Unmarshal([]byte(specs[i]), &req); err != nil {
			t.Fatal(err)
		}
		wl, pf, err := serve.ResolveTarget(&req)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range wl.Groups {
			key := encoding.TableIdentity(g, pf)
			distinct[key] = Owner(shards, key)
		}
	}
	for round := 0; round < 2; round++ {
		for _, spec := range specs {
			resp, b := postOptimize(t, rts.URL, spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, b)
			}
		}
	}

	resp, err := http.Get(rts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Healthy != 3 || stats.Shards != 3 {
		t.Fatalf("fleet health %d/%d, want 3/3", stats.Healthy, stats.Shards)
	}
	if stats.Aggregate.Searches != uint64(2*len(specs)) {
		t.Errorf("aggregate searches %d, want %d", stats.Aggregate.Searches, 2*len(specs))
	}
	if stats.Aggregate.CrossRequestHitRate <= 0 {
		t.Errorf("repeat mix produced no cross-request hits: %+v", stats.Aggregate)
	}
	// Each spec is one group, and its repeat is answered by its owner's
	// memo of finished searches.
	if stats.Aggregate.MemoHits != uint64(len(specs)) {
		t.Errorf("aggregate memo hits %d, want one per repeated spec = %d", stats.Aggregate.MemoHits, len(specs))
	}
	sum := 0
	for _, st := range stats.PerShard {
		if st.Stats != nil {
			sum += st.Stats.Problems
		}
	}
	if sum != len(distinct) {
		t.Errorf("per-shard problems sum to %d, want %d distinct (ownership not disjoint)", sum, len(distinct))
	}
	if stats.Aggregate.Problems != len(distinct) {
		t.Errorf("aggregate problems %d, want %d", stats.Aggregate.Problems, len(distinct))
	}
	// Every identity's owner actually built it: shards that own nothing
	// must have no problems.
	ownedBy := map[int]int{}
	for _, owner := range distinct {
		ownedBy[owner]++
	}
	for i, st := range stats.PerShard {
		if st.Stats != nil && st.Stats.Problems != ownedBy[i] {
			t.Errorf("shard %d holds %d problems, owns %d identities", i, st.Stats.Problems, ownedBy[i])
		}
	}

	// A shard that answers /stats with a 500 and a JSON error body is
	// unhealthy and left out of the aggregate, although the body decodes.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "boom"})
	}))
	defer failing.Close()
	rt, err := NewRouter(append(shards[:len(shards):len(shards)], Shard{Name: "failing", URL: failing.URL}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	withFailing := rt.collectStats(context.Background())
	if withFailing.Healthy != 3 || withFailing.Shards != 4 {
		t.Errorf("fleet health with a failing shard %d/%d, want 3/4", withFailing.Healthy, withFailing.Shards)
	}
	if row := withFailing.PerShard[3]; row.Healthy || row.Stats != nil || row.Error == "" {
		t.Errorf("failing shard's row %+v, want unhealthy with an error and no stats", row)
	}
	if withFailing.Aggregate != stats.Aggregate {
		t.Errorf("aggregate with a failing shard %+v, want the healthy shards' %+v", withFailing.Aggregate, stats.Aggregate)
	}
}

// TestRouterHealthzAndJobs: /healthz turns 503 when any shard is down,
// and the shard-local job API is explicitly not routed.
func TestRouterHealthzAndJobs(t *testing.T) {
	live := httptest.NewServer(serve.New(magma.NewSolver(magma.SolverOptions{})).Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rtUp, err := NewRouter([]Shard{{Name: "a", URL: live.URL}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	up := httptest.NewServer(rtUp.Handler())
	defer up.Close()
	if resp, err := http.Get(up.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet /healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(up.URL + "/jobs"); err != nil || resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/jobs on the router: %v %v, want 501", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	rtDown, err := NewRouter([]Shard{{Name: "a", URL: live.URL}, {Name: "b", URL: deadURL}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	down := httptest.NewServer(rtDown.Handler())
	defer down.Close()
	resp, err := http.Get(down.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded fleet /healthz status %d, want 503", resp.StatusCode)
	}
	var h struct {
		OK      bool `json:"ok"`
		Healthy int  `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.OK || h.Healthy != 1 {
		t.Fatalf("degraded health body %+v", h)
	}
}

// TestRouterFanOutBoundsInFlight: a 60-byte body can generate hundreds
// of groups, and the router fans each out as its own sub-request. Fake
// shards that hold every forward for a moment record how many overlap:
// never more than maxFanOut, yet every group is forwarded.
func TestRouterFanOutBoundsInFlight(t *testing.T) {
	var inFlight, peak, served atomic.Int64
	shards := make([]Shard, 3)
	for i := range shards {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			served.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	rt, err := NewRouter(shards, Config{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	const groups = 4 * maxFanOut
	postOptimize(t, rts.URL, fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":%d,"group_size":4,"seed":1}}`, 4*groups))
	if got := served.Load(); got != groups {
		t.Errorf("shards served %d forwards, want one per group = %d", got, groups)
	}
	if got := peak.Load(); got > maxFanOut {
		t.Errorf("%d forwards in flight at once, want at most %d", got, maxFanOut)
	}
}

// TestRouterFanOutBudgetPastDefault: with more groups than DefaultBudget
// and no budget_per_group, each sub-request carries the floor of 20 ×
// group size that one node's stream loop runs per group, not the 0 of
// DefaultBudget / groups, which a shard reads as unset and searches at
// the whole DefaultBudget.
func TestRouterFanOutBudgetPastDefault(t *testing.T) {
	const groups, size = magma.DefaultBudget + 16, 4
	var served, wrong atomic.Int64
	shards := make([]Shard, 3)
	for i := range shards {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req serve.OptimizeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Options.BudgetPerGroup != 20*size {
				wrong.Add(1)
			}
			served.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	rt, err := NewRouter(shards, Config{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	postOptimize(t, rts.URL, fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":%d,"group_size":%d,"seed":1}}`, groups*size, size))
	if got := served.Load(); got != groups {
		t.Fatalf("shards served %d forwards, want one per group = %d", got, groups)
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d of %d sub-requests did not carry budget_per_group %d", n, groups, 20*size)
	}
}

// TestResponsesAreCompact pins the wire form of the router's own
// bodies: the merged /optimize reply, /stats, /healthz and the /jobs
// refusal are compact JSON, one value per line, the bytes of
// json.Marshal of what they decode to plus '\n', with the key paths and
// value types of testdata/wire.golden.
func TestResponsesAreCompact(t *testing.T) {
	shards, rt, rts := newFleet(t, 3, Config{})
	wire := wireGolden{}
	split, groups := splitRequest(t, shards)
	body := strings.TrimSuffix(split, "}") + `,"options":{"budget_per_group":100,"seed":1}}`
	resp, raw := postOptimize(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if rt.Stats().FanOuts != 1 {
		t.Fatalf("request was not fanned out: %+v", rt.Stats())
	}
	var merged serve.OptimizeResponse
	requireCompact(t, "merged optimize", raw, &merged)
	wire.add(t, "optimize", raw)
	if len(merged.Groups) != groups {
		t.Errorf("merged %d groups, want %d", len(merged.Groups), groups)
	}

	for _, c := range []struct {
		path string
		code int
		v    any
	}{
		{"/stats", http.StatusOK, new(StatsResponse)},
		{"/healthz", http.StatusOK, new(struct {
			Detail  []ShardStatus `json:"detail"`
			Healthy int           `json:"healthy"`
			OK      bool          `json:"ok"`
			Shards  int           `json:"shards"`
		})},
		{"/jobs", http.StatusNotImplemented, new(map[string]string)},
	} {
		resp, err := http.Get(rts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d: %s", c.path, resp.StatusCode, c.code, raw)
		}
		requireCompact(t, c.path, raw, c.v)
		wire.add(t, strings.TrimPrefix(c.path, "/"), raw)
	}
	wire.check(t, "testdata/wire.golden")
}

func requireCompact(t *testing.T, name string, body []byte, v any) {
	t.Helper()
	if !json.Valid(body) || bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("%s: body is not one JSON line: %q", name, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("%s: body is not compact:\n got %q\nwant %q", name, body, want)
	}
}
