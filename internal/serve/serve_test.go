package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"magma"
	"magma/internal/fault"
	"magma/internal/serve"
)

func newTestServer(t *testing.T) (*httptest.Server, *magma.Solver) {
	t.Helper()
	solver := magma.NewSolver(magma.SolverOptions{})
	ts := httptest.NewServer(serve.New(solver).Handler())
	t.Cleanup(ts.Close)
	return ts, solver
}

func post(t *testing.T, url, body string) (*http.Response, serve.OptimizeResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out serve.OptimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decoding response: %v\n%s", err, buf.String())
		}
	}
	return resp, out, buf.String()
}

const genReq = `{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":11},
  "platform":"S2","options":{"budget_per_group":100,"seed":1}}`

// TestServeOptimizeRepeatedRequests: the core serving contract —
// repeated identical requests against the shared Solver return
// bit-identical schedules and accumulate cross-request cache hits.
func TestServeOptimizeRepeatedRequests(t *testing.T) {
	ts, _ := newTestServer(t)

	resp1, first, raw := post(t, ts.URL, genReq)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, raw)
	}
	if len(first.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(first.Groups))
	}
	for _, g := range first.Groups {
		if g.ThroughputGFLOPs <= 0 || len(g.Queues) == 0 {
			t.Errorf("degenerate group result: %+v", g)
		}
	}
	if first.Engine.CrossRequestHitRate != 0 {
		t.Errorf("first request reports cross-request hit rate %v, want 0", first.Engine.CrossRequestHitRate)
	}

	_, second, _ := post(t, ts.URL, genReq)
	if !reflect.DeepEqual(first.Groups, second.Groups) {
		t.Error("repeated request returned different schedules")
	}
	if second.Cache.CrossHits == 0 {
		t.Error("repeated request reports no cross-request hits")
	}
	if second.Engine.CrossRequestHitRate <= 0 {
		t.Error("engine cross_request_hit_rate still zero after a repeat")
	}
	if second.Engine.TablesReused == 0 {
		t.Error("repeated request rebuilt all analysis tables")
	}
}

// TestServeInlineWorkload round-trips a workload document through the
// wire format.
func TestServeInlineWorkload(t *testing.T) {
	ts, _ := newTestServer(t)
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Vision, NumJobs: 16, GroupSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := wl.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"workload": json.RawMessage(doc.Bytes()),
		"platform": "S1",
		"options":  map[string]any{"budget_per_group": 64, "seed": 2, "mapper": "Herald-like"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, out, raw := post(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Groups) != 1 || out.Groups[0].Mapper != "Herald-like" {
		t.Errorf("unexpected groups: %+v", out.Groups)
	}
}

// TestServeConcurrentClients hammers one server from concurrent
// goroutines (raced in CI) and checks all identical requests agree.
func TestServeConcurrentClients(t *testing.T) {
	ts, solver := newTestServer(t)
	const clients = 5
	outs := make([]serve.OptimizeResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(genReq))
			if err != nil {
				return // counted via zero response below
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&outs[c])
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if len(outs[c].Groups) == 0 {
			t.Fatalf("client %d got no schedules", c)
		}
		if !reflect.DeepEqual(outs[c].Groups, outs[0].Groups) {
			t.Errorf("client %d schedules differ from client 0", c)
		}
	}
	// The concurrent burst alone can coalesce into a single search
	// (singleflight), which legitimately produces zero cross-request
	// hits; a sequential repeat afterwards is always a fresh search
	// against the stored entries, so reuse must show deterministically.
	resp, _, raw := post(t, ts.URL, genReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sequential repeat: status %d: %s", resp.StatusCode, raw)
	}
	if st := solver.Stats(); st.Cache.CrossHits == 0 {
		t.Error("repeating an already-served request produced no cross-request hits")
	}
}

// TestServeStatsAndHealthz covers the observability endpoints.
func TestServeStatsAndHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL, genReq)
	post(t, ts.URL, genReq)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats serve.EngineJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Searches == 0 || stats.CrossRequestHitRate <= 0 {
		t.Errorf("stats after repeated requests: %+v", stats)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hz.StatusCode)
	}
}

// TestServeBadRequests pins the error surface: validation failures are
// 4xx with a JSON error body, never 200 or a panic.
func TestServeBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"generate":`, http.StatusBadRequest},
		{"no workload", `{"platform":"S2"}`, http.StatusBadRequest},
		{"both sources", `{"workload":{"name":"x","task":"Mix","groups":[]},"generate":{"task":"Mix","num_jobs":8},"platform":"S2"}`, http.StatusBadRequest},
		{"unknown field", `{"generate":{"task":"Mix","num_jobs":8},"bogus":1}`, http.StatusBadRequest},
		{"unknown platform", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"platform":"S9"}`, http.StatusBadRequest},
		{"unknown task", `{"generate":{"task":"Audio","num_jobs":16,"seed":1}}`, http.StatusBadRequest},
		{"unknown objective", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"objective":"speed"}}`, http.StatusBadRequest},
		// Up-front options validation: an unknown mapper (or a negative
		// budget) is rejected before any search state is built.
		{"unknown mapper", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"mapper":"bogus","budget_per_group":32}}`, http.StatusBadRequest},
		{"negative timeout", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"timeout_ms":-5}`, http.StatusBadRequest},
		{"effective budget without cache", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"cache":false,"effective_budget":true}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, raw := post(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			if !strings.Contains(raw, "error") {
				t.Errorf("no error field in %q", raw)
			}
		})
	}
}

// TestServeRejectsRemovedBoundOption: pruning is always on, so the
// request field that once toggled it is gone from the wire. A client
// still sending options.bound gets a 400 naming the field instead of a
// silently ignored knob.
func TestServeRejectsRemovedBoundOption(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _, raw := post(t, ts.URL, `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"bound":true}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, `unknown field \"bound\"`) {
		t.Errorf("error %q does not name the bound field", raw)
	}
}

// TestServeMapperPanicReturns500 pins the panic-isolation contract at
// the HTTP surface: an injected mapper panic fails its own request with
// a 500, the server keeps serving, and the next identical request
// succeeds with schedules bit-identical to an undisturbed server's.
func TestServeMapperPanicReturns500(t *testing.T) {
	baselineTS, _ := newTestServer(t)
	resp, want, raw := post(t, baselineTS.URL, genReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %s", resp.StatusCode, raw)
	}

	fault.Reset()
	t.Cleanup(fault.Reset)
	ts, solver := newTestServer(t)
	fault.Enable(fault.M3EAsk, fault.Every(2, func() error {
		panic("injected mapper panic")
	}))
	resp2, _, raw2 := post(t, ts.URL, genReq)
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked run: status %d, want 500 (%s)", resp2.StatusCode, raw2)
	}
	if !strings.Contains(raw2, "panicked") {
		t.Errorf("500 body does not name the panic: %s", raw2)
	}
	fault.Reset()

	resp3, got, raw3 := post(t, ts.URL, genReq)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status %d: %s", resp3.StatusCode, raw3)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Error("request after a mapper panic diverged from the undisturbed baseline")
	}
	if st := solver.Stats(); st.MapperPanics != 1 {
		t.Errorf("MapperPanics = %d, want 1", st.MapperPanics)
	}
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats serve.EngineJSON
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.MapperPanics != 1 {
		t.Errorf("/stats mapper_panics = %d, want 1", stats.MapperPanics)
	}
}

// TestServeOverloadRetryContract pins the 429 shedding surface: a
// Retry-After header plus a machine-readable JSON body (code
// "overloaded", retry_after_ms, occupancy, limit) — the contract README
// documents for programmatic backoff.
func TestServeOverloadRetryContract(t *testing.T) {
	solver := magma.NewSolver(magma.SolverOptions{})
	ts := httptest.NewServer(serve.NewWith(solver, serve.Config{MaxRunning: 1}).Handler())
	t.Cleanup(ts.Close)

	// Occupy the single slot with a slow async job.
	long := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":8},
	  "options":{"budget_per_group":100000,"seed":1}}`
	id := submitJob(t, ts.URL, long)
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		// Wait out the cancellation so the search goroutine is gone
		// before the test's solver goes out of scope.
		waitJob(t, ts.URL, id)
	}()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past the cap: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response carries no Retry-After header")
	}
	var body struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
		Running      int    `json:"running"`
		Limit        int    `json:"limit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "overloaded" || body.RetryAfterMS <= 0 || body.Running != 1 || body.Limit != 1 || body.Error == "" {
		t.Errorf("429 body missing retry contract fields: %+v", body)
	}
}
