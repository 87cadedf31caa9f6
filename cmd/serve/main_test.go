package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"magma"
)

// logBuffer collects run's log lines; the server's goroutines write to
// it while the test reads it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var boundAddr = regexp.MustCompile(`(?:listening|routing) on (\S+) \(`)

// start runs the server on a free local port and returns its base URL
// and its log. stop cancels run's context and returns run's error; the
// test fails if run has not returned 10 s later.
func start(t *testing.T, args ...string) (url string, logs *logBuffer, stop func() error) {
	t.Helper()
	logs = &logBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), logs) }()
	stop = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("run did not return after its context was cancelled:\n%s", logs)
			return nil
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := boundAddr.FindStringSubmatch(logs.String()); m != nil {
			return "http://" + m[1], logs, stop
		}
		select {
		case err := <-done:
			t.Fatalf("run returned %v before listening:\n%s", err, logs)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	t.Fatalf("server never listened:\n%s", logs)
	return "", nil, nil
}

// TestRunRejectsShardFlagsWithShards: every solver flag configures a
// shard process, so each is refused in router mode before anything
// listens.
func TestRunRejectsShardFlagsWithShards(t *testing.T) {
	for _, flag := range [][]string{
		{"-maxproblems", "8"},
		{"-jobtimeout", "1s"},
		{"-maxjobs", "4"},
		{"-maxrunning", "4"},
		{"-snapshot-dir", t.TempDir()},
		{"-snapshot-interval", "1s"},
	} {
		var logs logBuffer
		args := append([]string{"-addr", "127.0.0.1:0", "-shards", "http://127.0.0.1:1"}, flag...)
		err := run(context.Background(), args, &logs)
		if err == nil || !strings.Contains(err.Error(), flag[0]) {
			t.Errorf("run(%q) = %v, want an error naming %s", args, err, flag[0])
		}
		if strings.Contains(logs.String(), " on ") {
			t.Errorf("run(%q) started serving:\n%s", args, logs.String())
		}
	}
	if err := run(context.Background(), []string{"-nosuchflag"}, io.Discard); err == nil {
		t.Error("an unknown flag was accepted")
	}
}

// TestRunBootsColdFromCorruptSnapshot: a corrupt snapshot is logged and
// rejected, the shard serves from a cold start, and the graceful stop
// replaces the file with a final snapshot a fresh Solver restores.
func TestRunBootsColdFromCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "solver.snap")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, logs, stop := start(t, "-snapshot-dir", dir, "-snapshot-interval", "0")
	if !strings.Contains(logs.String(), "rejected") || !strings.Contains(logs.String(), "cold start") {
		t.Errorf("corrupt snapshot not reported as rejected with a cold start:\n%s", logs)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after a cold start: %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(logs.String(), "final snapshot written") {
		t.Errorf("no final snapshot on the graceful stop:\n%s", logs)
	}
	if err := magma.NewSolver(magma.SolverOptions{}).RestoreFile(path); err != nil {
		t.Errorf("final snapshot does not restore: %v", err)
	}
}

// TestRunStopsOnCancel: a shard and a router each answer a request,
// then shut down gracefully and return nil once their context is
// cancelled.
func TestRunStopsOnCancel(t *testing.T) {
	shard, shardLogs, stopShard := start(t)
	body := `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"platform":"S2","options":{"budget_per_group":64,"seed":1}}`
	router, routerLogs, stopRouter := start(t, "-shards", shard)
	resp, err := http.Post(router+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"queues"`) {
		t.Errorf("optimize through the router: %d %s", resp.StatusCode, raw)
	}
	for _, s := range []struct {
		name string
		logs *logBuffer
		stop func() error
	}{{"router", routerLogs, stopRouter}, {"shard", shardLogs, stopShard}} {
		if err := s.stop(); err != nil {
			t.Errorf("%s: run returned %v", s.name, err)
		}
		if !strings.Contains(s.logs.String(), "shutting down") {
			t.Errorf("%s: no graceful shutdown logged:\n%s", s.name, s.logs)
		}
	}
}
