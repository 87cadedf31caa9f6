package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"magma"
)

// TestRequestWorkersClamped: a request's worker count is untrusted, and
// every worker is an evaluator the engine builds, so parseRequest caps
// it at GOMAXPROCS. Results never depend on it: a request for 1<<30
// workers answers 200 with the groups of a one-worker request.
func TestRequestWorkersClamped(t *testing.T) {
	s := New(magma.NewSolver(magma.SolverOptions{}))
	body := func(workers int) string {
		return fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":11},
  "platform":"S2","options":{"budget_per_group":100,"seed":1,"workers":%d}}`, workers)
	}
	// Checked before anything runs: unclamped, the request below would
	// build a pool of a billion evaluators.
	spec, err := s.parseRequest(strings.NewReader(body(1 << 30)))
	if err != nil {
		t.Fatal(err)
	}
	if limit := runtime.GOMAXPROCS(0); spec.opts.Workers > limit {
		t.Fatalf("workers %d survived parsing, want at most GOMAXPROCS = %d", spec.opts.Workers, limit)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	groups := func(workers int) []GroupSchedule {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body(workers)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers %d: status %d", workers, resp.StatusCode)
		}
		var out OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Groups
	}
	if one, many := groups(1), groups(1<<30); !reflect.DeepEqual(one, many) {
		t.Errorf("groups at workers 1<<30 differ from workers 1:\n%+v\n%+v", many, one)
	}
}
