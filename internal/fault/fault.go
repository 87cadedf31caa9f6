// Package fault is the injectable failure-point registry behind the
// crash/restore/panic test suites and cmd/bench's -chaos mode.
//
// Production code declares *points* — named places where a failure can
// be injected — by calling Hit(name) (or Sleep via a registered delay
// hook) on its error paths. Tests and the chaos driver arm a point with
// Enable(name, fn); the registered hook runs on every pass through the
// point and may return an error (which the call site propagates), sleep
// (a delayed simulation), or panic (exercising the mapper recover
// boundary). Disarmed points cost one atomic load — no build tags, no
// test-only compilation, so the exact binary that ships is the one the
// fault suites exercise.
//
// Points are global (package-level), matching how they are used: one
// process-wide chaos configuration per test or bench run. Reset clears
// everything between tests.
package fault

import (
	"sync"
	"sync/atomic"
)

// Hook is one armed failure: it runs on every pass through its point.
// It may return an error for the call site to propagate, sleep to delay
// the operation, or panic to exercise a recover boundary. Hooks run on
// the goroutine that hit the point and must be safe for concurrent use.
type Hook func() error

// Well-known point names. Call sites and chaos drivers share these
// constants so a renamed point cannot silently disarm a suite.
const (
	// PersistWrite fires inside persist.WriteAtomic before the data is
	// written; an error aborts the snapshot (write-error injection).
	PersistWrite = "persist.write"
	// PersistTear fires after persist.WriteAtomic has written the temp
	// file but before the atomic rename; an error leaves a torn temp
	// file behind and fails the snapshot (torn-write injection).
	PersistTear = "persist.tear"
	// M3EAsk fires at every generation boundary right before the
	// optimizer's Ask, inside the mapper recover boundary: a panicking
	// hook surfaces as a *m3e.MapperPanicError, a non-nil error as a
	// plain run error (mapper-panic-at-generation injection).
	M3EAsk = "m3e.ask"
	// M3ESimulate fires once per simulation, in
	// m3e.Evaluator.EvaluateMapping before the simulator runs; a
	// sleeping hook models a slow evaluation (delay injection). An error
	// fails that evaluation: the runner scores the genome -Inf, and a
	// pruned search whose bounds priced the genome fails its bracket
	// check. Use it for delays and panics only.
	M3ESimulate = "m3e.simulate"
	// SimKernel fires at the entry of sim.Simulator.Run, the
	// event-driven simulator kernel, once per simulation; an error
	// fails that Run (and hence the evaluation), a sleeping hook models
	// a slow simulator pass. The kernel-v1 oracle in the simulator's
	// tests does not pass through it.
	SimKernel = "sim.kernel"
	// FleetForward fires in the fleet router before every forwarded
	// sub-request; a sleeping hook models a slow shard (the forward
	// proceeds after the delay — tail-latency injection).
	FleetForward = "fleet.forward"
	// FleetShardDown fires at the same site; a non-nil error is treated
	// exactly like a failed dial to the owning shard — the router
	// retries with backoff and then answers 502 (shard-down injection).
	FleetShardDown = "fleet.shard-down"
)

// armed counts enabled points; zero keeps every Hit on the one-atomic-
// load fast path.
var armed atomic.Int32

var (
	mu     sync.RWMutex
	points = map[string]*point{}
)

type point struct {
	hook Hook
	hits atomic.Uint64
}

// Enable arms a failure point. A second Enable for the same name
// replaces the hook (its hit counter restarts).
func Enable(name string, h Hook) {
	if h == nil {
		Disable(name)
		return
	}
	mu.Lock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{hook: h}
	mu.Unlock()
}

// Disable disarms a point. Disabling an unarmed point is a no-op.
func Disable(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point (test teardown).
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Hit passes through the named point: nil when the point is disarmed
// (the common case — one atomic load), otherwise whatever the armed
// hook returns. The hook may also sleep or panic; panics propagate to
// the caller, which is the way chaos reaches the mapper recover
// boundary.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	p.hits.Add(1)
	return p.hook()
}

// Hits reports how many times the named point fired since it was armed
// (zero for disarmed points).
func Hits(name string) uint64 {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Every returns a hook that calls inner on every n-th pass (1-based)
// and returns nil otherwise — the cadence helper chaos mode uses to
// inject a failure into a fraction of the traffic.
func Every(n uint64, inner Hook) Hook {
	if n == 0 {
		n = 1
	}
	var calls atomic.Uint64
	return func() error {
		if calls.Add(1)%n == 0 {
			return inner()
		}
		return nil
	}
}
