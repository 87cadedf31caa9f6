package fleet

import (
	"net/url"
	"strings"
	"testing"
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
