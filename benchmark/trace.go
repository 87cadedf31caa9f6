package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/engine"
	"magma/internal/m3e"
	"magma/internal/sim"
)

// span is one traced interval. Spans are recorded only by the
// benchmark's own code, around calls into each layer's public
// functions; the program under test is never modified. A traced run has
// a single client, so the spans of one op nest by time containment.
type span struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Where string `json:"where,omitempty"` // shard name, for per-shard spans
	Start int64  `json:"start_ns"`        // since the tracer started
	End   int64  `json:"end_ns"`
	// Calls counts the repeated steps a span covers: back-to-back calls
	// of one function in an off-path unit timing (taken after the op on
	// its own input, so it never inflates the op's latency), or the
	// generations of an m3e.gens span.
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() int64         { return s.End - s.Start }
func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) within(o span) bool { return s.Start >= o.Start && s.End <= o.End }
func (s span) perCall() float64   { return float64(s.dur()) / float64(max(s.Calls, 1)) }

// tracer keeps spans and counters in memory; the harness writes the
// spans out when the run ends.
type tracer struct {
	t0  time.Time
	cur atomic.Int64 // the op the client is running, -1 between ops

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	cache  m3e.CacheStats   // summed over the window's searches
	phases m3e.PhaseTimings // likewise
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), counts: map[string]float64{}}
	t.cur.Store(-1)
	return t
}

func (t *tracer) record(op int, name, where string, start, end time.Time, calls int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Where: where,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Calls: calls})
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// unit times calls back-to-back runs of f as one off-path span, so a
// sub-microsecond function is measured over many calls.
func (t *tracer) unit(op int, name string, calls int, f func()) {
	start := time.Now()
	for k := 0; k < calls; k++ {
		f()
	}
	t.record(op, name, "", start, time.Now(), calls)
}

// handler wraps an in-process server's handler in a span per /optimize
// request, attributed to the op the client is running.
func (t *tracer) handler(name, where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := int(t.cur.Load())
		start := time.Now()
		h.ServeHTTP(w, r)
		if op >= 0 && r.URL.Path == "/optimize" {
			t.record(op, name, where, start, time.Now(), 0)
		}
	})
}

// memStats brackets an op with runtime counters. ReadMemStats stops the
// world, so traced runs take it outside the op span.
func (t *tracer) memStats(before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.count("runtime.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	t.count("runtime.gcs", float64(after.NumGC-before.NumGC))
}

// addSearch adds one search's fitness-cache counters and phase timings.
// A search without the cache simulates every genome it asks for.
func (t *tracer) addSearch(c m3e.CacheStats, p m3e.PhaseTimings, asked int) {
	sims := c.Misses - c.BoundPruned
	if c.Hits+c.Deduped+c.Misses == 0 {
		sims = uint64(asked)
	}
	t.count("m3e.sims", float64(sims))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cache.Add(c)
	t.phases.Add(p)
}

// addEngine adds the growth of solver counters between two snapshots.
func (t *tracer) addEngine(before, after magma.SolverStats) {
	t.count("engine.tables_built", float64(after.TablesBuilt-before.TablesBuilt))
	t.count("engine.evictions", float64(after.ProblemsEvicted-before.ProblemsEvicted))
	t.count("engine.pools_built", float64(after.PoolsBuilt-before.PoolsBuilt))
	t.count("engine.pools_reused", float64(after.PoolsReused-before.PoolsReused))
	c0, c1 := before.Cache, after.Cache
	t.count("engine.cross_hits", float64(c1.CrossHits-c0.CrossHits))
	t.count("engine.evaluations", float64(c1.Hits+c1.Deduped+c1.Misses-c0.Hits-c0.Deduped-c0.Misses))
}

// generations times a search generation by generation through its
// Options.Progress callback: the gap between two consecutive callbacks
// is one whole ask–evaluate–tell round. generationsDone records them as
// one m3e.gens span from the first callback to the last, whose Calls is the
// number of generations it covers.
type generations struct {
	first, last time.Time
	n           int
}

func (g *generations) progress(magma.Progress) {
	now := time.Now()
	if g.first.IsZero() {
		g.first = now
	} else {
		g.n++
	}
	g.last = now
}

func (t *tracer) generationsDone(op int, g *generations) {
	if g.n > 0 {
		t.record(op, "m3e.gens", "", g.first, g.last, g.n)
	}
}

// unitCalls is how many back-to-back calls a unit timing of a
// microsecond-scale function spans.
const unitCalls = 8

// sink keeps unit-timed results alive so no call is optimised away.
var sink float64

// probeGroup times, off the op's path, the layers beneath the search on
// one group of op op and the best schedule found for it: the analysis
// table build, a cold and a warm engine lookup, genome decode and
// fingerprint, one simulation and one roofline bound.
func (t *tracer) probeGroup(op int, g magma.Group, pf magma.Platform, genome encoding.Genome, mapping sim.Mapping) error {
	var prob *m3e.Problem
	var err error
	t.unit(op, "analyzer.table", 1, func() { prob, err = m3e.NewProblem(g, pf, m3e.Throughput) })
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{})
	t.unit(op, "engine.problem_cold", 1, func() { _, err = eng.Problem(g, pf, m3e.Throughput) })
	if err != nil {
		return err
	}
	t.unit(op, "engine.problem_warm", 1, func() { _, err = eng.Problem(g, pf, m3e.Throughput) })
	if err != nil {
		return err
	}

	nAccels := pf.NumAccels()
	var scratch sim.Mapping
	hashes := make(encoding.CoreHashes, nAccels)
	encoding.DecodeInto(genome, nAccels, &scratch) // grow the scratch before timing
	t.unit(op, "encoding.decode", unitCalls, func() { encoding.DecodeInto(genome, nAccels, &scratch) })
	t.unit(op, "encoding.fingerprint", unitCalls, func() {
		sink += float64(genome.FingerprintCoresInto(nAccels, &scratch, hashes).A & 1)
	})

	simulator := sim.NewSimulator(sim.Options{})
	if _, err := simulator.Run(prob.Table, mapping); err != nil { // warm the per-table constants
		return err
	}
	t.unit(op, "sim.run", unitCalls, func() {
		res, _ := simulator.Run(prob.Table, mapping)
		sink += res.TotalCycles
	})
	bounds := sim.NewBounds(prob.Table)
	cores := make(sim.CoreBounds, nAccels)
	t.unit(op, "sim.bound", unitCalls, func() {
		bounds.CoresInto(cores, &mapping)
		sink += bounds.LowerBound(cores)
	})
	return nil
}

// writeSpans writes every span to path as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Start string `json:"start"`
		Spans []span `json:"spans"`
	}{t.t0.UTC().Format(time.RFC3339Nano), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics folds the spans and counters of ops completed ops into
// the per-layer metrics. Shares divide a layer's summed time by the
// summed op time; unit timings are medians over their spans; counts and
// rates come from the counters the program exposes.
func (t *tracer) layerMetrics(ops int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int][]span{}
	units := map[string][]float64{}
	unitSums := map[string]float64{}
	var genNsTotal, gens float64
	for _, s := range t.spans {
		switch {
		case s.Name == "m3e.gens":
			genNsTotal += float64(s.dur())
			gens += float64(s.Calls)
		case s.Calls > 0:
			units[s.Name] = append(units[s.Name], s.perCall())
			unitSums[s.Name] += s.perCall()
		default:
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	opIDs := make([]int, 0, len(byOp))
	for op := range byOp {
		opIDs = append(opIDs, op)
	}
	sort.Ints(opIDs)

	var opNs, hopNs, stragglerNs, handlerNs, transportNs, forwards float64
	perShard := map[string]float64{}
	for _, id := range opIDs {
		b, ok := criticalPath(byOp[id])
		if !ok {
			continue
		}
		opNs += float64(b.op)
		hopNs += float64(b.hop)
		stragglerNs += float64(b.straggler)
		handlerNs += float64(b.handler)
		transportNs += float64(b.transport)
		forwards += float64(b.forwards)
		for _, s := range byOp[id] {
			if s.Name == "serve.handler" && s.Where != "" {
				perShard[s.Where]++
			}
		}
	}

	c, cache, ph := t.counts, t.cache, t.phases
	perOp := func(name string) float64 { return ratio(c[name], float64(ops)) }
	perGen := func(ns int64) float64 { return ratio(float64(ns), float64(ph.Generations)) / 1e3 }
	genNs := float64(ph.AskNs + ph.FingerprintNs + ph.BoundNs + ph.SimulateNs + ph.TellNs)
	unitMedian := func(name string, scale float64) float64 {
		if len(units[name]) == 0 {
			return 0
		}
		return median(units[name]) / scale
	}
	skew := 0.0
	if len(perShard) > 0 {
		var total, most float64
		for _, n := range perShard {
			total += n
			most = math.Max(most, n)
		}
		skew = most / (total / fleetShards)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	return map[string]float64{
		"fleet.hop_share":          ratio(hopNs, opNs),
		"fleet.straggler_share":    ratio(stragglerNs, opNs),
		"fleet.subrequests_per_op": ratio(forwards, float64(ops)),
		"fleet.fanout_ratio":       ratio(c["fleet.fanouts"], c["fleet.requests"]),
		"fleet.shard_skew":         skew,
		"fleet.retry_ratio":        ratio(c["fleet.retries"], c["fleet.forwarded"]),

		"serve.handler_share":   ratio(handlerNs, opNs),
		"serve.transport_share": ratio(transportNs, opNs),
		"serve.decode_share":    ratio(unitSums["serve.decode"], opNs),
		"serve.encode_share":    ratio(unitSums["serve.encode"], opNs),
		"serve.validate_share":  ratio(unitSums["serve.validate"], opNs),
		"serve.request_kb":      perOp("serve.request_bytes") / 1024,
		"serve.response_kb":     perOp("serve.response_bytes") / 1024,

		"engine.cross_hit_rate":      ratio(c["engine.cross_hits"], c["engine.evaluations"]),
		"engine.tables_built_per_op": perOp("engine.tables_built"),
		"engine.evictions_per_op":    perOp("engine.evictions"),
		"engine.pool_reuse_rate":     ratio(c["engine.pools_reused"], c["engine.pools_reused"]+c["engine.pools_built"]),
		"engine.problem_cold_us":     unitMedian("engine.problem_cold", 1e3),
		"engine.problem_warm_us":     unitMedian("engine.problem_warm", 1e3),

		"analyzer.table_us": unitMedian("analyzer.table", 1e3),

		"workload.generate_us": unitMedian("workload.generate", 1e3),

		"m3e.gen_us":            ratio(genNsTotal, gens) / 1e3,
		"m3e.gens_per_op":       ratio(float64(ph.Generations), float64(ops)),
		"m3e.simulate_us":       perGen(ph.SimulateNs),
		"m3e.fingerprint_share": ratio(float64(ph.FingerprintNs), genNs),
		"m3e.bound_share":       ratio(float64(ph.BoundNs), genNs),
		"m3e.hit_rate":          cache.HitRate(),
		"m3e.fast_fp_rate":      cache.FastFPRate(),
		"m3e.bound_prune_rate":  cache.BoundPruneRate(),
		"m3e.sims_per_op":       perOp("m3e.sims"),
		"m3e.fp_full_per_op":    ratio(float64(cache.FullFP), float64(ops)),

		"opt.ask_us":  perGen(ph.AskNs),
		"opt.tell_us": perGen(ph.TellNs),

		"encoding.decode_ns":      unitMedian("encoding.decode", 1),
		"encoding.fingerprint_ns": unitMedian("encoding.fingerprint", 1),

		"sim.run_ns":   unitMedian("sim.run", 1),
		"sim.bound_ns": unitMedian("sim.bound", 1),

		"runtime.alloc_kb_per_op": perOp("runtime.alloc_bytes") / 1024,
		"runtime.gc_per_op":       perOp("runtime.gcs"),
		"runtime.gc_cpu_fraction": ms.GCCPUFraction,
	}
}

// breakdown is one op's latency along its critical path, in ns.
type breakdown struct {
	op        int64 // the client's whole op
	hop       int64 // router self time: its span minus its forwards
	handler   int64 // the shard handler on the critical path
	transport int64 // client↔front and router↔shard time outside any handler
	straggler int64 // slowest minus fastest forward of a fan-out
	forwards  int
}

// criticalPath splits one op's spans. A served op runs client → shard
// handler; through the fleet it runs client → router handler → forwards
// to shards, each holding a shard handler, and the slowest forward is
// the critical path. An op with no client span is not on the path.
func criticalPath(spans []span) (breakdown, bool) {
	var op, router *span
	var fwds, handlers []span
	for i := range spans {
		switch s := &spans[i]; s.Name {
		case "op":
			op = s
		case "fleet.router":
			router = s
		case "fleet.forward":
			fwds = append(fwds, *s)
		case "serve.handler":
			handlers = append(handlers, *s)
		}
	}
	if op == nil {
		return breakdown{}, false
	}
	b := breakdown{op: op.dur(), forwards: len(fwds)}
	front := longest(handlers)
	if router != nil {
		children := make([]interval, len(fwds))
		for i, f := range fwds {
			children[i] = f.interval()
		}
		b.hop = selfTime(router.interval(), children)
		b.transport = op.dur() - router.dur()
		front = nil
		if crit := longest(fwds); crit != nil {
			b.transport += crit.dur()
			b.straggler = crit.dur() - shortest(fwds).dur()
			for i, h := range handlers {
				if h.Where == crit.Where && h.within(*crit) {
					front = &handlers[i]
					b.transport -= h.dur()
					break
				}
			}
		}
	} else if front != nil {
		b.transport = op.dur() - front.dur()
	}
	if front != nil {
		b.handler = front.dur()
	}
	return b, true
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func longest(spans []span) *span {
	var best *span
	for i := range spans {
		if best == nil || spans[i].dur() > best.dur() {
			best = &spans[i]
		}
	}
	return best
}

func shortest(spans []span) *span {
	var best *span
	for i := range spans {
		if best == nil || spans[i].dur() < best.dur() {
			best = &spans[i]
		}
	}
	return best
}
