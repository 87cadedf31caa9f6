package m3e

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"

	"magma/internal/encoding"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/rng"
)

func fp(i int) encoding.Fingerprint {
	return encoding.Fingerprint{A: uint64(i) + 1, B: uint64(i)*3 + 7}
}

func TestStoreExportOrderUnwrapped(t *testing.T) {
	s := NewCacheStore(8)
	s.mu.Lock()
	for i := 0; i < 5; i++ {
		s.insertLocked(fp(i), float64(i), 1)
	}
	s.mu.Unlock()
	got := s.Export()
	if len(got) != 5 {
		t.Fatalf("exported %d entries, want 5", len(got))
	}
	for i, e := range got {
		if e.FP != fp(i) || e.Fitness != float64(i) {
			t.Fatalf("entry %d = %+v, want fp(%d)/%d (oldest first)", i, e, i, i)
		}
	}
}

// TestStoreExportOrderWrapped fills past capacity so the FIFO ring
// wraps; Export must still come out oldest-first.
func TestStoreExportOrderWrapped(t *testing.T) {
	s := NewCacheStore(4)
	s.mu.Lock()
	for i := 0; i < 10; i++ { // survivors: 6,7,8,9 with ring rotated
		s.insertLocked(fp(i), float64(i), 1)
	}
	s.mu.Unlock()
	got := s.Export()
	if len(got) != 4 {
		t.Fatalf("exported %d entries, want 4", len(got))
	}
	for k, e := range got {
		want := 6 + k
		if e.FP != fp(want) {
			t.Fatalf("entry %d is fp(%d)'s slot, want fp(%d)", k, e.FP.A-1, want)
		}
	}
}

// TestStoreImportPreservesBoundAndOrder restores an exported store into
// a *smaller* one: the bound must hold and FIFO replay must keep the
// newest entries — the invariant a restored-after-downsize server
// relies on.
func TestStoreImportPreservesBoundAndOrder(t *testing.T) {
	src := NewCacheStore(8)
	src.mu.Lock()
	for i := 0; i < 8; i++ {
		src.insertLocked(fp(i), float64(i), 1)
	}
	src.mu.Unlock()

	dst := NewCacheStore(3)
	dst.Import(src.Export())
	if dst.Len() != 3 {
		t.Fatalf("restored store holds %d entries, capacity 3", dst.Len())
	}
	got := dst.Export()
	for k, e := range got {
		want := 5 + k // the 3 newest, still oldest-first
		if e.FP != fp(want) {
			t.Fatalf("restored entry %d = fp-slot %d, want fp(%d)", k, e.FP.A-1, want)
		}
	}
	// The restored store keeps evicting correctly: one more insert drops
	// the oldest survivor.
	dst.mu.Lock()
	dst.insertLocked(fp(99), 99, 1)
	dst.mu.Unlock()
	got = dst.Export()
	if len(got) != 3 || got[0].FP != fp(6) || got[2].FP != fp(99) {
		t.Fatalf("post-restore eviction broke FIFO: %+v", got)
	}
}

// TestImportedEntriesCountAsCrossRunHits pins the run-id-0 contract: a
// run binding to a restored store sees its hits as cross-run hits.
func TestImportedEntriesCountAsCrossRunHits(t *testing.T) {
	src := NewCacheStore(16)
	src.mu.Lock()
	src.insertLocked(fp(1), 1.5, 1)
	src.mu.Unlock()

	dst := NewCacheStore(16)
	dst.Import(src.Export())
	dst.mu.RLock()
	e, ok := dst.entries[fp(1)]
	dst.mu.RUnlock()
	if !ok {
		t.Fatal("imported entry missing")
	}
	if e.run != 0 {
		t.Fatalf("imported entry carries run id %d, want 0", e.run)
	}
	if first := dst.beginRun(); first == 0 {
		t.Fatal("beginRun allocated the reserved restored-entry id 0")
	}
}

// TestExportImportRoundTripIdentical: a full round trip through
// Export/Import reproduces the store exactly (entries, order, values).
func TestExportImportRoundTripIdentical(t *testing.T) {
	src := NewCacheStore(6)
	src.mu.Lock()
	for i := 0; i < 9; i++ {
		s := float64(i) * 1.25
		src.insertLocked(fp(i), s, 1)
	}
	src.mu.Unlock()
	dst := NewCacheStore(6)
	dst.Import(src.Export())
	if !reflect.DeepEqual(src.Export(), dst.Export()) {
		t.Fatal("round trip changed the store's exported state")
	}
}

// TestExportDuringConcurrentMutation races Export against inserts from
// several goroutines; the race detector is the assertion, plus every
// returned cut must be internally consistent (no duplicate
// fingerprints, length within capacity).
func TestExportDuringConcurrentMutation(t *testing.T) {
	s := NewCacheStore(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := s.beginRun()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.mu.Lock()
				s.insertLocked(fp(w*100000+i), float64(i), run)
				s.mu.Unlock()
			}
		}(w)
	}
	for k := 0; k < 50; k++ {
		cut := s.Export()
		if len(cut) > 64 {
			t.Errorf("cut of %d entries exceeds capacity", len(cut))
			break
		}
		seen := make(map[encoding.Fingerprint]bool, len(cut))
		for _, e := range cut {
			if seen[e.FP] {
				t.Errorf("duplicate fingerprint in cut")
			}
			seen[e.FP] = true
		}
	}
	close(stop)
	wg.Wait()
}

// elitist is a minimal optimizer the runner prunes: each batch re-asks
// the k best genomes of the last one verbatim and fills the rest with
// random genomes.
type elitist struct {
	p      *Problem
	r      *rng.Stream
	k, n   int
	elite  []encoding.Genome // the k best genomes of the last told batch
	from   []int             // their indices in it
	reasks []int
}

func (e *elitist) Name() string                         { return "elitist" }
func (e *elitist) Init(p *Problem, r *rng.Stream) error { e.p, e.r = p, r; return nil }
func (e *elitist) EliteCount(int) int                   { return e.k }
func (e *elitist) Reasks() []int                        { return e.reasks }

func (e *elitist) Ask() []encoding.Genome {
	batch := make([]encoding.Genome, e.n)
	e.reasks = append(e.reasks[:0], e.from...)
	for i := range batch {
		if i < len(e.elite) {
			batch[i] = e.elite[i].Clone()
		} else {
			batch[i] = encoding.Random(e.p.NumJobs(), e.p.NumAccels(), e.r)
		}
	}
	return batch
}

func (e *elitist) Tell(gs []encoding.Genome, fit []float64) {
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(fit[b], fit[a]) })
	e.from, e.elite = order[:min(e.k, len(order))], e.elite[:0]
	for _, i := range e.from {
		e.elite = append(e.elite, gs[i].Clone())
	}
}

// TestStoreRingMatchesMap pins that a store's FIFO ring and its map
// hold the same fingerprints, each once, so Len is the size of both and
// never exceeds capacity. Pruned runs of several seeds wrap a small
// store's ring many times while the virtual-time stage settles genomes,
// none of which may enter the map.
func TestStoreRingMatchesMap(t *testing.T) {
	prob := testProblem(t, models.Mix, 16, platform.S2().WithBW(16), Throughput)
	const capacity = 64
	s := NewCacheStore(capacity)
	var settled, sims uint64
	for seed := int64(1); seed <= 4; seed++ {
		res, err := Run(prob, &elitist{k: 4, n: 32}, Options{Budget: 1000, Store: s}, seed)
		if err != nil {
			t.Fatal(err)
		}
		settled += res.Cache.VirtualPruned
		sims += res.Cache.Misses - res.Cache.BoundPruned
	}
	if settled == 0 || sims <= 2*capacity {
		t.Fatalf("the runs settled %d genomes and simulated %d; want some settled and the ring wrapped", settled, sims)
	}
	n := s.Len()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.fifo) != len(s.entries) || n != len(s.entries) || n > capacity {
		t.Fatalf("ring holds %d fingerprints, map %d, Len %d; want all equal and at most %d", len(s.fifo), len(s.entries), n, capacity)
	}
	seen := make(map[encoding.Fingerprint]bool, len(s.fifo))
	for _, fp := range s.fifo {
		if _, ok := s.entries[fp]; !ok || seen[fp] {
			t.Fatalf("ring fingerprint %v is missing from the map or repeated", fp)
		}
		seen[fp] = true
	}
}
