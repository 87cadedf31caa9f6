package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"magma/internal/encoding"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/workload"
)

// syntheticKeys draws n well-spread table identities.
func syntheticKeys(n int, seed int64) []encoding.TableKey {
	r := rand.New(rand.NewSource(seed))
	keys := make([]encoding.TableKey, n)
	for i := range keys {
		keys[i] = encoding.TableKey{A: r.Uint64(), B: r.Uint64()}
	}
	return keys
}

func namedShards(n int) []Shard {
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{Name: fmt.Sprintf("shard%d", i), URL: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	return shards
}

// TestOwnerDeterministic pins that ownership depends only on the shard
// *names*, not the slice order or repeated evaluation.
func TestOwnerDeterministic(t *testing.T) {
	shards := namedShards(5)
	keys := syntheticKeys(1000, 1)
	owners := make([]string, len(keys))
	for i, k := range keys {
		owners[i] = shards[Owner(shards, k)].Name
	}
	for i, k := range keys {
		if got := shards[Owner(shards, k)].Name; got != owners[i] {
			t.Fatalf("key %d: owner changed across calls: %s then %s", i, owners[i], got)
		}
	}
	// Reversing the slice must not move a single key.
	rev := make([]Shard, len(shards))
	for i, sh := range shards {
		rev[len(shards)-1-i] = sh
	}
	for i, k := range keys {
		if got := rev[Owner(rev, k)].Name; got != owners[i] {
			t.Fatalf("key %d: owner depends on slice order: %s vs %s", i, owners[i], got)
		}
	}
}

// TestOwnerRealIdentities routes identities of real generated groups —
// the content-hash inputs production routing sees — deterministically.
func TestOwnerRealIdentities(t *testing.T) {
	shards := namedShards(3)
	pf := platform.S2().WithBW(16)
	wl, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: 64, GroupSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range wl.Groups {
		key := encoding.TableIdentity(g, pf)
		a, b := Owner(shards, key), Owner(shards, key)
		if a != b {
			t.Fatalf("group %d: nondeterministic owner %d vs %d", g.Index, a, b)
		}
	}
}

// TestOwnerBalance: over 10k synthetic identities no shard may own more
// than 1.5x the mean (rendezvous hashing is uniform by construction;
// binomial spread at these counts is a few percent).
func TestOwnerBalance(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		shards := namedShards(n)
		keys := syntheticKeys(10000, 42)
		counts := make([]int, n)
		for _, k := range keys {
			counts[Owner(shards, k)]++
		}
		mean := float64(len(keys)) / float64(n)
		for i, c := range counts {
			if float64(c) > 1.5*mean {
				t.Errorf("%d shards: shard %d owns %d keys (mean %.0f): unbalanced", n, i, c, mean)
			}
			if c == 0 {
				t.Errorf("%d shards: shard %d owns nothing", n, i)
			}
		}
	}
}

// TestOwnerMinimalRemapping: growing the fleet by one shard may move
// only the keys the new shard wins (about 1/(n+1) of the space), and
// removing a shard may move only the keys it owned.
func TestOwnerMinimalRemapping(t *testing.T) {
	keys := syntheticKeys(10000, 99)
	four := namedShards(4)
	five := namedShards(5) // shard4 added

	moved := 0
	for _, k := range keys {
		before := four[Owner(four, k)].Name
		after := five[Owner(five, k)].Name
		if before != after {
			moved++
			if after != "shard4" {
				t.Fatalf("key moved from %s to %s, not to the new shard", before, after)
			}
		}
	}
	want := float64(len(keys)) / 5
	if f := float64(moved); f < 0.5*want || f > 1.5*want {
		t.Errorf("adding a shard moved %d keys; want about %.0f (1/5 of the space)", moved, want)
	}

	// Remove shard1: its keys redistribute, everyone else's stay put.
	removed := []Shard{four[0], four[2], four[3]}
	for _, k := range keys {
		before := four[Owner(four, k)].Name
		after := removed[Owner(removed, k)].Name
		if before != "shard1" && after != before {
			t.Fatalf("key owned by %s moved to %s when shard1 was removed", before, after)
		}
		if before == "shard1" && after == "shard1" {
			t.Fatal("key still owned by the removed shard")
		}
	}
}

func TestParseShards(t *testing.T) {
	shards, err := ParseShards("http://a:1, http://b:2 ,named=http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shard{
		{Name: "http://a:1", URL: "http://a:1"},
		{Name: "http://b:2", URL: "http://b:2"},
		{Name: "named", URL: "http://c:3"},
	}
	if len(shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(shards), len(want))
	}
	for i := range want {
		if shards[i] != want[i] {
			t.Errorf("shard %d: got %+v, want %+v", i, shards[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "ftp://x", "=http://x", "http://a,http://a", "http://", "http://a b"} {
		if _, err := ParseShards(bad); err == nil {
			t.Errorf("ParseShards(%q): expected error", bad)
		}
	}
}
