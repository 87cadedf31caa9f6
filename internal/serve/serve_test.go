package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
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
	// Each client of the cold burst may run its own search before any
	// of them is remembered, so the burst alone can produce zero
	// cross-request hits; a sequential repeat afterwards is always
	// answered from the problem's memo, so reuse must show.
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
		// effective_budget was a wire option; its field is gone, so
		// DisallowUnknownFields rejects it like any other unknown name.
		{"effective_budget is an unknown field", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"effective_budget":true}}`, http.StatusBadRequest},
		// Every served search runs on the shard's store, so the request
		// option that once switched the cache is gone too.
		{"cache is an unknown field", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"cache":true}}`, http.StatusBadRequest},
		// A search runs on one goroutine, so the option that sized its
		// worker fan-out is gone as well, even at an absurd width.
		{"workers is an unknown field", `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"options":{"workers":1073741824}}`, http.StatusBadRequest},
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

// TestWriteJSONRefusesUnencodable: a value JSON cannot carry is
// marshalled before the status line goes out, so it is answered 500 with
// a decodable error body instead of the promised status with an empty
// body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		serve.WriteJSON(rec, http.StatusOK, serve.GroupSchedule{Fitness: v})
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("fitness %v: status %d, want 500 (%q)", v, rec.Code, rec.Body)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("fitness %v: body %q is not an error object (%v)", v, rec.Body, err)
		}
	}
}

// requireCompact fails unless body is one compact JSON value and its
// newline: the bytes of json.Marshal of the value it decodes to into v,
// plus '\n'.
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

func fetch(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestResponsesAreCompact pins the wire form of every body the shard
// writes: compact JSON, one value per line, with the key paths and value
// types of testdata/wire.golden. It covers each job state and the SSE
// payloads, so the server admits one running job.
func TestResponsesAreCompact(t *testing.T) {
	ts := httptest.NewServer(serve.NewWith(magma.NewSolver(magma.SolverOptions{}), serve.Config{MaxRunning: 1}).Handler())
	t.Cleanup(ts.Close)
	wire := wireGolden{}
	var fresh, hit serve.OptimizeResponse
	for _, out := range []*serve.OptimizeResponse{&fresh, &hit} {
		code, raw := fetch(t, http.MethodPost, ts.URL+"/optimize", genReq)
		if code != http.StatusOK {
			t.Fatalf("optimize: status %d: %s", code, raw)
		}
		requireCompact(t, "optimize", raw, out)
		wire.add(t, "optimize", raw)
	}
	if hit.Engine.MemoHits == fresh.Engine.MemoHits || !reflect.DeepEqual(hit.Groups, fresh.Groups) {
		t.Errorf("repeat was not a memo hit with the fresh groups: memo_hits %d → %d",
			fresh.Engine.MemoHits, hit.Engine.MemoHits)
	}

	_, raw := fetch(t, http.MethodGet, ts.URL+"/stats", "")
	requireCompact(t, "stats", raw, new(serve.EngineJSON))
	wire.add(t, "stats", raw)
	_, raw = fetch(t, http.MethodGet, ts.URL+"/healthz", "")
	requireCompact(t, "healthz", raw, new(map[string]bool))
	wire.add(t, "healthz", raw)
	code, raw := fetch(t, http.MethodPost, ts.URL+"/optimize", `{"platform":"S2"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad request: status %d: %s", code, raw)
	}
	requireCompact(t, "400", raw, new(map[string]string))
	wire.add(t, "optimize-400", raw)

	code, raw = fetch(t, http.MethodPost, ts.URL+"/jobs", jobRequest(64))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	var submitted map[string]any
	requireCompact(t, "job submit", raw, &submitted)
	wire.add(t, "jobs-submit", raw)
	id, _ := submitted["id"].(string)
	waitJob(t, ts.URL, id)
	_, raw = fetch(t, http.MethodGet, ts.URL+"/jobs/"+id, "")
	var view serve.JobView
	requireCompact(t, "job view", raw, &view)
	wire.add(t, "job-done", raw)
	if view.Status != serve.JobDone || view.Result == nil {
		t.Errorf("job view %s", raw)
	}
	for _, ev := range readEvents(t, ts.URL, id, 0) {
		wire.add(t, "event-"+ev.name, []byte(ev.data))
	}

	// A long job fills the one running slot: a second submit is shed, its
	// stream opens on a progress event, and DELETE cancels it.
	long := submitJob(t, ts.URL, jobRequest(2_000_000))
	waitProgress(t, ts.URL, long)
	code, raw = fetch(t, http.MethodPost, ts.URL+"/jobs", jobRequest(64))
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit past cap: status %d: %s", code, raw)
	}
	requireCompact(t, "429", raw, new(map[string]any))
	wire.add(t, "jobs-submit-429", raw)
	for _, ev := range readEvents(t, ts.URL, long, 1) {
		wire.add(t, "event-"+ev.name, []byte(ev.data))
	}
	code, raw = fetch(t, http.MethodDelete, ts.URL+"/jobs/"+long, "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", code, raw)
	}
	requireCompact(t, "cancel", raw, new(map[string]string))
	wire.add(t, "job-delete", raw)
	waitJob(t, ts.URL, long)
	code, raw = fetch(t, http.MethodGet, ts.URL+"/jobs/"+long, "")
	if code != serve.StatusClientClosedRequest {
		t.Fatalf("cancelled job: status %d: %s", code, raw)
	}
	requireCompact(t, "cancelled job view", raw, new(serve.JobView))
	wire.add(t, "job-cancelled", raw)
	_, raw = fetch(t, http.MethodGet, ts.URL+"/jobs", "")
	requireCompact(t, "job list", raw, new(map[string][]serve.JobView))
	wire.add(t, "jobs-list", raw)
	wire.check(t, "testdata/wire.golden")
}
