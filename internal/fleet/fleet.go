// Package fleet scales the Solver horizontally: a consistent-hash
// router in front of N independent shard servers (each a cmd/serve
// process with its own Solver, caches and snapshots).
//
// Requests are routed by encoding.TableIdentity — the stable 128-bit
// content hash of a (group, platform) pair the engine already keys its
// problem cache on — so every problem is owned by exactly one shard and
// that shard's table, memo of finished searches and snapshots
// accumulate all of the problem's reuse. There is no coordination on
// the hot path: the router's only job is to compute identities (cheap,
// no table build) and forward.
//
// Ownership uses rendezvous (highest-random-weight) hashing rather than
// a ring: every shard scores every key and the highest score wins, so
// the map needs no virtual-node tuning, is uniform by construction, and
// adding or removing one shard remaps only the keys that shard wins or
// owned — about 1/N of the space — while every other key keeps its
// owner (and its warm caches).
package fleet

import (
	"fmt"
	"net/url"
	"strings"

	"magma/internal/encoding"
)

// Shard is one Solver replica the router forwards to.
type Shard struct {
	// Name is the stable identity fed to the rendezvous hash. It — not
	// the live process — owns the shard's slice of the key space, so
	// keep names stable across restarts: a shard that comes back under
	// the same name (and restores its snapshot) resumes serving exactly
	// the problems it served before.
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixer (the same construction internal/rng builds streams from).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nameHash hashes a shard name (FNV-64a).
func nameHash(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return h
}

// score is one (shard, key) rendezvous weight. Both TableKey lanes feed
// the mix so identities differing in either lane score independently.
func score(shardHash uint64, key encoding.TableKey) uint64 {
	return mix64(shardHash ^ mix64(key.A^mix64(key.B)))
}

// Owner returns the index of the shard owning key under rendezvous
// hashing: the shard with the highest (shard, key) score. The winner
// depends only on the set of shard names — not their order in the
// slice — and ties (vanishingly rare with 64-bit scores) break toward
// the lexicographically smaller name so the choice stays deterministic.
// Owner panics on an empty shard set; routing over zero shards is a
// configuration error callers must reject up front.
func Owner(shards []Shard, key encoding.TableKey) int {
	if len(shards) == 0 {
		panic("fleet: Owner over zero shards")
	}
	best := 0
	bestScore := score(nameHash(shards[0].Name), key)
	for i := 1; i < len(shards); i++ {
		s := score(nameHash(shards[i].Name), key)
		if s > bestScore || (s == bestScore && shards[i].Name < shards[best].Name) {
			best, bestScore = i, s
		}
	}
	return best
}

// ParseShards parses a comma-separated shard list for the -shards flag.
// Each element is either a bare URL ("http://host:port", the URL doubles
// as the stable hash name) or "name=url" when the URL may change across
// restarts but the shard's identity — and therefore its slice of the
// key space and its snapshot — must not. Every URL must be http or
// https with a host.
func ParseShards(spec string) ([]Shard, error) {
	var shards []Shard
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sh := Shard{Name: part, URL: part}
		if name, url, ok := strings.Cut(part, "="); ok {
			sh = Shard{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
		}
		if sh.Name == "" || sh.URL == "" {
			return nil, fmt.Errorf("fleet: malformed shard %q (want url or name=url)", part)
		}
		if !strings.HasPrefix(sh.URL, "http://") && !strings.HasPrefix(sh.URL, "https://") {
			return nil, fmt.Errorf("fleet: shard %q: URL must start with http:// or https://", part)
		}
		if u, err := url.Parse(sh.URL); err != nil || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard %q: URL %q has no valid host", part, sh.URL)
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
		shards = append(shards, sh)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards in %q", spec)
	}
	return shards, nil
}
