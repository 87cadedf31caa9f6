package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"magma"
)

// FuzzParseRequest feeds parseRequest arbitrary /optimize and /jobs
// bodies. Every error it returns is one the handlers answer with 400, so
// the property is that it never panics and returns either an error or a
// runSpec a search can start from: options that validate and are cached
// on the shard's store, and a timeout that is never negative and, under
// a server-wide cap, within it. A body naming a removed option (bound,
// cache, effective_budget, workers) or a group with fewer jobs than the
// platform has cores is always refused. Seed corpus:
// internal/serve/testdata/fuzz/FuzzParseRequest. Explore beyond it with
//
//	go test -run=NONE -fuzz=FuzzParseRequest -fuzztime=10s ./internal/serve/
func FuzzParseRequest(f *testing.F) {
	solver := magma.NewSolver(magma.SolverOptions{})
	const jobCap = time.Minute
	servers := []*Server{New(solver), NewWith(solver, Config{JobTimeout: jobCap})}
	f.Fuzz(func(t *testing.T, body string) {
		for _, s := range servers {
			spec, err := s.parseRequest(strings.NewReader(body))
			if err != nil {
				if spec != nil {
					t.Fatalf("parseRequest(%q) returned a spec with error %v", body, err)
				}
				continue
			}
			if spec == nil {
				t.Fatalf("parseRequest(%q) returned neither a spec nor an error", body)
			}
			if err := spec.opts.Validate(); err != nil {
				t.Fatalf("parseRequest(%q) accepted invalid options: %v", body, err)
			}
			if !spec.opts.Cache {
				t.Fatalf("parseRequest(%q) built an uncached search; every served search runs on the shard's store", body)
			}
			if name := removedOption(body); name != "" {
				t.Fatalf("parseRequest(%q) accepted the removed option %q", body, name)
			}
			for gi, g := range spec.wl.Groups {
				if len(g.Jobs) < spec.pf.NumAccels() {
					t.Fatalf("parseRequest(%q) accepted group %d of %d jobs on %d cores", body, gi, len(g.Jobs), spec.pf.NumAccels())
				}
			}
			if spec.timeout < 0 || (s.cfg.JobTimeout > 0 && (spec.timeout == 0 || spec.timeout > s.cfg.JobTimeout)) {
				t.Fatalf("parseRequest(%q) set timeout %v under a server cap of %v", body, spec.timeout, s.cfg.JobTimeout)
			}
		}
	})
}

// removedOption returns the first removed wire option body names in its
// options object, or "" when it names none or is not a JSON object.
func removedOption(body string) string {
	var req struct {
		Options map[string]json.RawMessage `json:"options"`
	}
	if json.Unmarshal([]byte(body), &req) != nil {
		return ""
	}
	for _, name := range []string{"bound", "cache", "effective_budget", "shared_warm", "workers"} {
		if _, ok := req.Options[name]; ok {
			return name
		}
	}
	return ""
}
