package m3e

import (
	"reflect"
	"sync"
	"testing"

	"magma/internal/encoding"
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

// TestStoreTopsKeepTheirOwnRing pins how bracket tops share the map but
// not the ring: tops never evict a fitness value, an exact value
// replaces a top in place and a top never replaces one, a top's stale
// ring slot evicts nothing, and neither Len nor Export sees a top.
func TestStoreTopsKeepTheirOwnRing(t *testing.T) {
	s := NewCacheStore(2)
	s.mu.Lock()
	s.insertLocked(fp(0), 0, 1)
	s.insertLocked(fp(1), 1, 1)
	for i := 2; i < 5; i++ {
		s.insertTopLocked(fp(i), float64(10*i)) // fp(2) leaves the tops ring
	}
	s.insertTopLocked(fp(1), 99) // a fitness value stays
	s.insertLocked(fp(3), 3, 2)  // replaces the top; fp(0) leaves the ring
	s.insertTopLocked(fp(5), 50) // takes fp(3)'s stale slot, evicting nothing
	s.mu.Unlock()
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 fitness values", got)
	}
	want := []ExportedEntry{{fp(1), 1}, {fp(3), 3}}
	if got := s.Export(); !reflect.DeepEqual(got, want) {
		t.Errorf("Export = %+v, want %+v", got, want)
	}
	tops := map[encoding.Fingerprint]float64{}
	for k, e := range s.entries {
		if e.run == topRun {
			tops[k] = e.fit
		}
	}
	if wantTops := map[encoding.Fingerprint]float64{fp(4): 40, fp(5): 50}; !reflect.DeepEqual(tops, wantTops) || s.nTops != 2 {
		t.Errorf("tops = %v (nTops %d), want %v", tops, s.nTops, wantTops)
	}
}
