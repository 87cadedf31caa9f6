package serve_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"magma"
	"magma/internal/serve"
)

// jobRequest is a small two-group workload; budget_per_group scales how
// long it runs.
func jobRequest(budget int) string {
	return fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":1},
		"platform":"S2","options":{"budget_per_group":%d,"seed":1}}`, budget)
}

func submitJob(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("submit response: %v (%s)", err, raw)
	}
	if out.ID == "" || out.Status != serve.JobRunning {
		t.Fatalf("submit response %s", raw)
	}
	return out.ID
}

func getJob(t *testing.T, url, id string) (int, serve.JobView) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v serve.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("job view: %v (%s)", err, raw)
	}
	return resp.StatusCode, v
}

// waitJob polls until the job leaves the running state.
func waitJob(t *testing.T, url, id string) (int, serve.JobView) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, v := getJob(t, url, id)
		if v.Status != serve.JobRunning {
			return code, v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return 0, serve.JobView{}
}

// waitProgress polls until the job has run at least two generations.
func waitProgress(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, v := getJob(t, url, id); v.Progress.Generation >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one Server-Sent Event of a job's progress stream.
type sseEvent struct{ name, data string }

// readEvents opens the job's event stream and reads until the server
// closes it, or until max events when max > 0.
func readEvents(t *testing.T, url, id string, max int) []sseEvent {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []sseEvent
	var ev sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.name != "":
			events = append(events, ev)
			ev = sseEvent{}
			if len(events) == max {
				return events
			}
		}
	}
	return events
}

func TestJobLifecycleDone(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submitJob(t, ts.URL, jobRequest(200))
	code, v := waitJob(t, ts.URL, id)
	if code != http.StatusOK || v.Status != serve.JobDone {
		t.Fatalf("finished job: code %d status %q", code, v.Status)
	}
	if v.Partial {
		t.Error("uncancelled job marked partial")
	}
	if v.Result == nil || len(v.Result.Groups) != 2 {
		t.Fatalf("finished job result %+v", v.Result)
	}
	if v.Progress.GroupsDone != 2 || v.Progress.Groups != 2 {
		t.Errorf("progress %+v, want 2/2 groups", v.Progress)
	}
	if v.Progress.Generation == 0 || v.Progress.Samples == 0 {
		t.Errorf("no live progress recorded: %+v", v.Progress)
	}
}

// TestJobCancelMidRunKeepsBestSoFar cancels a job without a timeout and
// one with a timeout, whose search runs under a timed child of the
// job's context: both read "cancel", with the latency measured from the
// DELETE.
func TestJobCancelMidRunKeepsBestSoFar(t *testing.T) {
	for _, c := range []struct{ name, timeout string }{{"untimed", ""}, {"timed", `,"timeout_ms":600000`}} {
		t.Run(c.name, func(t *testing.T) {
			ts, _ := newTestServer(t)
			// A budget this size runs for many seconds on one core — the
			// test cancels long before it finishes.
			id := submitJob(t, ts.URL, strings.TrimSuffix(jobRequest(2_000_000), "}")+c.timeout+"}")
			waitProgress(t, ts.URL, id)
			if code := cancelJob(t, ts.URL, id); code != http.StatusAccepted {
				t.Fatalf("cancel: status %d", code)
			}

			code, v := waitJob(t, ts.URL, id)
			if code != serve.StatusClientClosedRequest {
				t.Fatalf("cancelled job: code %d, want %d", code, serve.StatusClientClosedRequest)
			}
			if v.Status != serve.JobCancelled || v.Reason != "cancel" || !v.Partial {
				t.Fatalf("cancelled job view: status %q reason %q partial %v", v.Status, v.Reason, v.Partial)
			}
			if v.Result == nil || len(v.Result.Groups) == 0 {
				t.Fatal("cancelled job lost its best-so-far schedules")
			}
			if !v.Result.Partial {
				t.Error("cancelled job result not marked partial")
			}
			if v.CancelLatencyMS <= 0 {
				t.Errorf("cancel latency not measured: %v", v.CancelLatencyMS)
			}
			// Cancellation must land within one generation's evaluation
			// budget — generations here are 16 genomes of a 16-job group,
			// far under a second even on one core; 5s allows for a heavily
			// loaded CI box.
			if v.CancelLatencyMS > 5000 {
				t.Errorf("cancel latency %.1fms exceeds the one-generation bound", v.CancelLatencyMS)
			}

			// DELETE on a finished job is idempotent.
			if code := cancelJob(t, ts.URL, id); code != http.StatusOK {
				t.Fatalf("re-cancel: status %d", code)
			}
		})
	}
}

// cancelJob sends DELETE /jobs/{id} and returns its status code.
func cancelJob(t *testing.T, url, id string) int {
	t.Helper()
	code, _ := fetch(t, http.MethodDelete, url+"/jobs/"+id, "")
	return code
}

func TestJobTimeout(t *testing.T) {
	ts, _ := newTestServer(t)
	body := fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":1},
		"platform":"S2","options":{"budget_per_group":2000000,"seed":1},"timeout_ms":300}`)
	id := submitJob(t, ts.URL, body)
	code, v := waitJob(t, ts.URL, id)
	if code != serve.StatusClientClosedRequest || v.Status != serve.JobCancelled {
		t.Fatalf("timed-out job: code %d status %q", code, v.Status)
	}
	if v.Reason != "timeout" {
		t.Errorf("reason %q, want timeout", v.Reason)
	}
	if v.Result == nil || len(v.Result.Groups) == 0 {
		t.Fatal("timed-out job lost its best-so-far schedules")
	}
}

func TestJobUnknownAndList(t *testing.T) {
	ts, _ := newTestServer(t)
	code, _ := func() (int, string) {
		resp, err := http.Get(ts.URL + "/jobs/doesnotexist")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}()
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}

	id := submitJob(t, ts.URL, jobRequest(200))
	waitJob(t, ts.URL, id)
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) == 0 {
		t.Fatal("job list empty")
	}
}

func TestJobEventsSSE(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submitJob(t, ts.URL, jobRequest(400))
	requireDone := func(events []sseEvent) {
		t.Helper()
		if len(events) == 0 || events[len(events)-1].name != "done" {
			t.Fatalf("stream did not end on a done event: %+v", events)
		}
		for _, ev := range events[:len(events)-1] {
			if ev.name != "progress" {
				t.Fatalf("event %q before done, want progress", ev.name)
			}
		}
		var v serve.JobView
		last := events[len(events)-1].data
		if err := json.Unmarshal([]byte(last), &v); err != nil {
			t.Fatalf("final event payload: %v (%s)", err, last)
		}
		if v.Status != serve.JobDone || v.Result == nil {
			t.Fatalf("final event %+v", v)
		}
	}
	requireDone(readEvents(t, ts.URL, id, 0))

	// A stream opened after the job finished gets exactly one event: the
	// done event carrying the result.
	waitJob(t, ts.URL, id)
	late := readEvents(t, ts.URL, id, 0)
	if len(late) != 1 {
		t.Fatalf("stream of a finished job has %d events, want 1: %+v", len(late), late)
	}
	requireDone(late)
}

// serveUniform is a downstream Mapper registered from outside the
// facade; the server resolves it by name through the same registry.
type serveUniform struct {
	n, a int
	rng  *magma.RNG
}

func (u *serveUniform) Name() string { return "serve-test-uniform" }
func (u *serveUniform) Init(p *magma.SearchProblem, rng *magma.RNG) error {
	u.n, u.a, u.rng = p.NumJobs(), p.NumAccels(), rng
	return nil
}
func (u *serveUniform) Ask() []magma.Genome {
	batch := make([]magma.Genome, 8)
	for i := range batch {
		g := magma.Genome{Accel: make([]int, u.n), Prio: make([]float64, u.n)}
		for j := 0; j < u.n; j++ {
			g.Accel[j] = u.rng.Intn(u.a)
			g.Prio[j] = u.rng.Float64()
		}
		batch[i] = g
	}
	return batch
}
func (u *serveUniform) Tell([]magma.Genome, []float64) {}

// TestRegisteredMapperUsableOverHTTP pins the acceptance criterion: a
// mapper added with magma.Register is selectable by name from the
// server without any facade or server edits.
func TestRegisteredMapperUsableOverHTTP(t *testing.T) {
	if err := magma.Register("serve-test-uniform", func() magma.Mapper { return &serveUniform{} }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ts, _ := newTestServer(t)
	body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},
		"platform":"S2","options":{"mapper":"serve-test-uniform","budget_per_group":64,"seed":1}}`
	resp, out, raw := post(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Groups) != 1 || out.Groups[0].Mapper != "serve-test-uniform" {
		t.Fatalf("groups %+v, want one scheduled by serve-test-uniform", out.Groups)
	}
}

func TestJobSubmitShedsLoadPastRunningCap(t *testing.T) {
	solver := magma.NewSolver(magma.SolverOptions{})
	ts := httptest.NewServer(serve.NewWith(solver, serve.Config{MaxRunning: 1}).Handler())
	t.Cleanup(ts.Close)

	id := submitJob(t, ts.URL, jobRequest(2_000_000))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(jobRequest(200)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past cap: status %d, want 429", resp.StatusCode)
	}

	// Cancelling the running job frees the slot.
	cancelJob(t, ts.URL, id)
	waitJob(t, ts.URL, id)
	id2 := submitJob(t, ts.URL, jobRequest(200))
	if _, v := waitJob(t, ts.URL, id2); v.Status != serve.JobDone {
		t.Fatalf("post-cap job: %q", v.Status)
	}
}

// TestJobAdmissionUnderConcurrency: submits that race for the one free
// running slot admit exactly one job; every other submit is shed with
// 429, whatever the interleaving.
func TestJobAdmissionUnderConcurrency(t *testing.T) {
	ts := httptest.NewServer(serve.NewWith(magma.NewSolver(magma.SolverOptions{}), serve.Config{MaxRunning: 1}).Handler())
	t.Cleanup(ts.Close)
	const rounds, submitters = 50, 8
	for round := 0; round < rounds; round++ {
		codes := make([]int, submitters)
		ids := make([]string, submitters)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(jobRequest(2_000_000)))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out struct {
					ID string `json:"id"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&out)
				codes[i], ids[i] = resp.StatusCode, out.ID
			}(i)
		}
		close(start)
		wg.Wait()
		admitted := 0
		for i, code := range codes {
			switch code {
			case http.StatusAccepted:
				admitted++
				cancelJob(t, ts.URL, ids[i])
				waitJob(t, ts.URL, ids[i])
			case http.StatusTooManyRequests:
			default:
				t.Fatalf("round %d: submit answered %d", round, code)
			}
		}
		if admitted != 1 {
			t.Errorf("round %d: %d of %d concurrent submits admitted at MaxRunning 1, want 1", round, admitted, submitters)
		}
	}
}
