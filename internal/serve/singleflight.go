package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"magma"
	"magma/internal/encoding"
)

// flightKey identifies a coalescible search: the stable content identity
// of every group's analysis table (group layers/batches × platform
// configuration) plus every option that can change the answer. Two
// requests with equal keys are guaranteed bit-identical responses, so
// the server runs the search once and fans the result out.
//
// Requests with SharedWarm never get a key (see coalescible):
// they mutate the Solver's cross-request warm store, so each must run.
type flightKey [sha256.Size]byte

// coalescible reports whether the request may share a flight.
func coalescible(spec *runSpec) bool { return !spec.opts.SharedWarm }

func keyFor(spec *runSpec) flightKey {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(len(spec.wl.Groups)))
	for _, g := range spec.wl.Groups {
		key := encoding.TableIdentity(g, spec.pf)
		u64(key.A)
		u64(key.B)
	}
	u64(uint64(spec.wl.Task))
	str(spec.opts.Mapper)
	u64(uint64(spec.opts.Objective))
	u64(uint64(spec.opts.BudgetPerGroup))
	u64(uint64(spec.opts.Seed))
	b(spec.opts.WarmStart)
	u64(uint64(spec.timeout)) // different deadlines → different partials
	var k flightKey
	h.Sum(k[:0])
	return k
}

// flight is one in-progress coalesced search. refs counts the clients
// waiting on it; the search's context is cancelled only when the last
// one detaches, so a leader's disconnect does not abort followers.
type flight struct {
	done   chan struct{} // closed after res/err are final
	cancel context.CancelFunc
	refs   int // guarded by flightGroup.mu
	res    magma.StreamResult
	err    error
}

// flightGroup coalesces identical in-flight /optimize searches: the
// first request with a key becomes the leader and runs the search; any
// identical request arriving while it is in flight attaches as a
// follower and shares the result (counted in Coalesced). Keys cover
// everything that affects the answer, so sharing is invisible except in
// wall-clock and the coalesced counter.
type flightGroup struct {
	mu        sync.Mutex
	flights   map[flightKey]*flight
	coalesced uint64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[flightKey]*flight)}
}

// Coalesced reports how many requests attached to another request's
// in-flight search since boot.
func (g *flightGroup) Coalesced() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}

// inflight reports the number of searches currently coalescible.
func (g *flightGroup) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// do runs (or joins) the flight for key. run executes on its own
// goroutine under a context owned by the flight; ctx is this one
// client's lifetime (its disconnect or per-request timeout).
//
// The returned joined flag reports whether this call attached to an
// already-running search. When ctx dies first the client detaches: the
// last detaching client cancels the search and waits out its bounded
// unwind (returning the best-so-far partial result, exactly like the
// uncoalesced path), while a non-last client returns ctx.Err()
// immediately and leaves the search running for the others.
func (g *flightGroup) do(ctx context.Context, key flightKey, run func(context.Context) (magma.StreamResult, error)) (res magma.StreamResult, err error, joined bool) {
	g.mu.Lock()
	f, ok := g.flights[key]
	if ok {
		g.coalesced++
	} else {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		g.flights[key] = f
		go func() {
			res, err := run(fctx)
			g.mu.Lock()
			delete(g.flights, key) // no new joiners once the result is final
			f.res, f.err = res, err
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
	}
	f.refs++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.res, f.err, ok
	case <-ctx.Done():
	}
	g.mu.Lock()
	f.refs--
	last := f.refs == 0
	g.mu.Unlock()
	if !last {
		// Others still want the result; leave the search to them.
		return magma.StreamResult{}, ctx.Err(), ok
	}
	f.cancel()
	<-f.done // bounded: the search stops at its next generation boundary
	return f.res, f.err, ok
}
