package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"magma/internal/encoding"
	"magma/internal/serve"
)

// FuzzParseShards feeds ParseShards arbitrary -shards values, the
// router's one decoder of operator input. It never panics, and every
// list it accepts is non-empty, with unique non-empty names and URLs
// that parse as http or https with a host. Seed corpus:
// internal/fleet/testdata/fuzz/FuzzParseShards. Explore beyond it with
//
//	go test -run=NONE -fuzz=FuzzParseShards -fuzztime=10s ./internal/fleet/
func FuzzParseShards(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		shards, err := ParseShards(spec)
		if err != nil {
			if shards != nil {
				t.Fatalf("ParseShards(%q) returned %v with error %v", spec, shards, err)
			}
			return
		}
		if len(shards) == 0 {
			t.Fatalf("ParseShards(%q) accepted an empty list", spec)
		}
		seen := map[string]bool{}
		for _, sh := range shards {
			if sh.Name == "" || seen[sh.Name] {
				t.Fatalf("ParseShards(%q): empty or repeated name in %v", spec, shards)
			}
			seen[sh.Name] = true
			u, err := url.Parse(sh.URL)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
				!(strings.HasPrefix(sh.URL, "http://") || strings.HasPrefix(sh.URL, "https://")) {
				t.Fatalf("ParseShards(%q): shard %q has URL %q, not an http(s) URL with a host (%v)", spec, sh.Name, sh.URL, err)
			}
		}
	})
}

// FuzzRouterOptimize drives the router's two decoders of untrusted
// bytes: the client's /optimize body and a shard's reply to a fanned-out
// group. Fake shards answer every forward with the fuzzed reply.
//
//   - The client body is answered 400 without reaching a shard, or
//     forwarded; never 500 and never a panic. A body the strict request
//     decoder refuses (malformed, or naming an unknown or removed option
//     such as options.workers) is never forwarded.
//   - A request whose groups span two shards, answered with the fuzzed
//     reply, is merged into a 200 holding every group in order, or
//     refused with a 502; never a panic.
//
// Seed corpus: internal/fleet/testdata/fuzz/FuzzRouterOptimize. Explore
// beyond it with
//
//	go test -run=NONE -fuzz=FuzzRouterOptimize -fuzztime=10s ./internal/fleet/
func FuzzRouterOptimize(f *testing.F) {
	var (
		mu    sync.Mutex
		reply []byte
		hits  int
	)
	shards := make([]Shard, 3)
	for i := range shards {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			mu.Lock()
			body := reply
			hits++
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		}))
		f.Cleanup(ts.Close)
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: ts.URL}
	}
	rt, err := NewRouter(shards, Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := rt.Handler()
	split, groups := splitRequest(f, shards)
	post := func(body string) (*httptest.ResponseRecorder, int) {
		mu.Lock()
		hits = 0
		mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body)))
		mu.Lock()
		defer mu.Unlock()
		return rec, hits
	}
	f.Fuzz(func(t *testing.T, body string, shardReply []byte) {
		mu.Lock()
		reply = shardReply
		mu.Unlock()

		rec, n := post(body)
		switch {
		case rec.Code == http.StatusInternalServerError:
			t.Fatalf("body %q: 500 %s", body, rec.Body)
		case rec.Code == http.StatusBadRequest && n > 0:
			t.Fatalf("body %q: 400 after %d forwards", body, n)
		case rec.Code != http.StatusBadRequest && n == 0:
			t.Fatalf("body %q: %d without a forward or a 400", body, rec.Code)
		}
		var req serve.OptimizeRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil && n > 0 {
			t.Fatalf("body %q: forwarded a body the request decoder refuses", body)
		}

		rec, _ = post(split)
		switch rec.Code {
		case http.StatusBadGateway:
		case http.StatusOK:
			var merged serve.OptimizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil {
				t.Fatalf("reply %q: merged 200 does not decode: %v (%q)", shardReply, err, rec.Body)
			}
			if len(merged.Groups) != groups {
				t.Fatalf("reply %q: merged %d groups, want %d", shardReply, len(merged.Groups), groups)
			}
			for i, g := range merged.Groups {
				if g.Index != i {
					t.Fatalf("reply %q: merged group %d has index %d", shardReply, i, g.Index)
				}
			}
		default:
			t.Fatalf("reply %q: fanned-out request answered %d, want 200 or 502", shardReply, rec.Code)
		}
	})
}

// splitRequest returns a generate request whose groups hash to at least
// two of shards, so the router fans it out, and its group count.
func splitRequest(tb testing.TB, shards []Shard) (string, int) {
	tb.Helper()
	for seed := 1; seed <= 64; seed++ {
		body := fmt.Sprintf(`{"generate":{"task":"Mix","num_jobs":48,"group_size":16,"seed":%d},"platform":"S2"}`, seed)
		var req serve.OptimizeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			tb.Fatal(err)
		}
		wl, pf, err := serve.ResolveTarget(&req)
		if err != nil {
			tb.Fatal(err)
		}
		first := Owner(shards, encoding.TableIdentity(wl.Groups[0], pf))
		for _, g := range wl.Groups[1:] {
			if Owner(shards, encoding.TableIdentity(g, pf)) != first {
				return body, len(wl.Groups)
			}
		}
	}
	tb.Fatal("no generated workload spans two shards")
	return "", 0
}
