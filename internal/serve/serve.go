// Package serve is the HTTP front end over a shared, long-lived
// magma.Solver: JSON in (workload + platform setting + options), JSON
// out (schedules + cache/engine stats). One Solver serves every
// request concurrently, so repeated or similar requests reuse analysis
// tables and each problem's memo of finished searches
// — the response's engine stats make the reuse observable
// (cross_request_hit_rate, memo_hits).
//
// Endpoints:
//
//	POST /optimize      schedule a workload synchronously (inline JSON or
//	                    generator spec); aborts with the client disconnect
//	GET  /stats         engine lifetime counters
//	GET  /healthz       liveness probe
//	POST /jobs          submit the same body asynchronously; returns a job id
//	GET  /jobs/{id}     job status + live progress (+ result when finished)
//	DELETE /jobs/{id}   cancel a running job (best-so-far result is kept)
//	GET  /jobs/{id}/events  SSE stream of per-generation progress
//
// cmd/serve wires this handler to a listener; cmd/bench's -serve mode
// drives it in-process as a load generator.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"magma"
	"magma/internal/m3e"
	"magma/internal/models"
	"magma/internal/sim"
)

// maxBody bounds request bodies (a 100-job group is ~100 KB of JSON;
// 16 MB leaves room for very large inline workloads).
const maxBody = 16 << 20

// maxGenerateJobs bounds a generate spec's num_jobs, about what the
// largest inline body could carry: the generator allocates every job
// before any group is searched, so an unbounded count lets a 60-byte
// body claim gigabytes.
const maxGenerateJobs = 1 << 16

// GenerateSpec asks the server to build a benchmark workload (§VI-A2)
// instead of shipping one inline.
type GenerateSpec struct {
	Task      string `json:"task"` // Vision | Lang | Recom | Mix
	NumJobs   int    `json:"num_jobs"`
	GroupSize int    `json:"group_size,omitempty"` // default 100
	Seed      int64  `json:"seed"`
}

// RequestOptions mirrors magma.StreamOptions for the wire.
type RequestOptions struct {
	Mapper         string `json:"mapper,omitempty"`    // default MAGMA; any magma.Register name works
	Objective      string `json:"objective,omitempty"` // throughput | latency | energy | edp
	BudgetPerGroup int    `json:"budget_per_group,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	WarmStart      bool   `json:"warm_start,omitempty"`
	SharedWarm     bool   `json:"shared_warm,omitempty"`
}

// OptimizeRequest is the POST /optimize and POST /jobs body. Exactly
// one of Workload (a document in the workload-JSON interchange format)
// or Generate must be set.
type OptimizeRequest struct {
	Workload json.RawMessage `json:"workload,omitempty"`
	Generate *GenerateSpec   `json:"generate,omitempty"`
	Platform string          `json:"platform,omitempty"` // "S1".."S6", default "S2"
	BW       float64         `json:"bw,omitempty"`       // GB/s; 0 = setting default
	Options  RequestOptions  `json:"options"`
	// TimeoutMS bounds this request's search wall-clock in milliseconds.
	// 0 means the server's default job timeout (cmd/serve -jobtimeout);
	// a nonzero value is additionally capped by that default. On expiry
	// the search stops at its next generation boundary and the response
	// carries the best-so-far schedules with partial set.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// GroupSchedule is one scheduled group of the response. Queues carries
// the decoded per-core job order — enough to verify bit-identical
// results across requests or against a local run.
type GroupSchedule struct {
	Index            int     `json:"index"`
	Mapper           string  `json:"mapper"`
	Fitness          float64 `json:"fitness"`
	ThroughputGFLOPs float64 `json:"throughput_gflops"`
	MakespanCycles   float64 `json:"makespan_cycles"`
	EnergyUnits      float64 `json:"energy_units"`
	Queues           [][]int `json:"queues"`
}

// CacheJSON is the wire form of m3e.CacheStats. Hits are the verbatim
// elite re-asks the runner settled from the previous batch's fitness,
// plus every genome of a memo answer; only the latter are cross hits.
type CacheJSON struct {
	Hits         uint64  `json:"hits"`
	CrossHits    uint64  `json:"cross_hits"`
	Misses       uint64  `json:"misses"`
	Invalid      uint64  `json:"invalid"`
	HitRate      float64 `json:"hit_rate"`
	CrossHitRate float64 `json:"cross_hit_rate"`
	// Deduped, FPFull, FPIncremental, FPClean and FastFPRate always read
	// 0 and are not on the wire; the benchmark harness compiles against
	// them.
	Deduped       uint64  `json:"-"`
	FPFull        uint64  `json:"-"`
	FPIncremental uint64  `json:"-"`
	FPClean       uint64  `json:"-"`
	FastFPRate    float64 `json:"-"`
	// Analytical-pruning counters: genomes tested against the elite
	// floor, the subset whose decode and simulation were replaced by
	// their roofline bound, and the prune rate over misses. A pruned
	// genome counts as a miss, so misses − bound_pruned is the number
	// simulated; hits+misses+invalid is every genome asked, whatever
	// the mapper (see m3e.CacheStats).
	BoundChecked   uint64  `json:"bound_checked"`
	BoundPruned    uint64  `json:"bound_pruned"`
	BoundPruneRate float64 `json:"bound_prune_rate"`
}

// CacheJSONOf converts aggregated cache counters to the wire form —
// exported for the fleet router, which sums shard counters and needs
// the rates recomputed over the sums.
func CacheJSONOf(s m3e.CacheStats) CacheJSON { return cacheJSON(s) }

func cacheJSON(s m3e.CacheStats) CacheJSON {
	return CacheJSON{
		Hits: s.Hits, CrossHits: s.CrossHits,
		Misses: s.Misses, Invalid: s.Invalid,
		HitRate: s.HitRate(), CrossHitRate: s.CrossHitRate(),
		BoundChecked: s.BoundChecked, BoundPruned: s.BoundPruned,
		BoundPruneRate: s.BoundPruneRate(),
	}
}

// EngineJSON is the wire form of magma.SolverStats: the shared engine's
// lifetime counters. CrossRequestHitRate is the headline — the fraction
// of all decodable evaluations answered by a *different* search: the
// genomes of every memo answer. Re-asks the runner settles count in the
// denominator but never as cross hits.
type EngineJSON struct {
	Searches            uint64    `json:"searches"`
	Problems            int       `json:"problems"`
	TablesBuilt         uint64    `json:"tables_built"`
	TablesReused        uint64    `json:"tables_reused"`
	ProblemsEvicted     uint64    `json:"problems_evicted"`
	Cache               CacheJSON `json:"cache"`
	CrossRequestHitRate float64   `json:"cross_request_hit_rate"`
	// Crash-safety and robustness counters: durable snapshots written,
	// problems and memo entries loaded back on boot, and mapper panics
	// recovered into failed requests.
	SnapshotsTaken   uint64 `json:"snapshots_taken"`
	ProblemsRestored uint64 `json:"problems_restored"`
	EntriesRestored  uint64 `json:"entries_restored"`
	MapperPanics     uint64 `json:"mapper_panics"`
	// MemoHits counts group searches answered from their problem's memo
	// of finished searches: exact repeats that ran no generation.
	MemoHits uint64 `json:"memo_hits"`
}

func engineJSON(s magma.SolverStats) EngineJSON {
	return EngineJSON{
		Searches: s.Searches, Problems: s.Problems,
		TablesBuilt: s.TablesBuilt, TablesReused: s.TablesReused,
		ProblemsEvicted:     s.ProblemsEvicted,
		Cache:               cacheJSON(s.Cache),
		CrossRequestHitRate: s.Cache.CrossHitRate(),
		SnapshotsTaken:      s.SnapshotsTaken,
		ProblemsRestored:    s.ProblemsRestored,
		EntriesRestored:     s.EntriesRestored,
		MapperPanics:        s.MapperPanics,
		MemoHits:            s.MemoHits,
	}
}

// OptimizeResponse is the POST /optimize reply (and the result payload
// of a finished job).
type OptimizeResponse struct {
	Workload         string          `json:"workload"`
	Platform         string          `json:"platform"`
	Groups           []GroupSchedule `json:"groups"`
	TotalGFLOPs      float64         `json:"total_gflops"`
	TotalSeconds     float64         `json:"total_seconds"`
	ThroughputGFLOPs float64         `json:"throughput_gflops"`
	Cache            CacheJSON       `json:"cache"`  // this request's counters
	Engine           EngineJSON      `json:"engine"` // shared-solver lifetime counters
	ElapsedMS        float64         `json:"elapsed_ms"`
	// Partial reports a context-aborted search (cancel, timeout, client
	// disconnect): Groups holds the best-so-far prefix.
	Partial bool `json:"partial,omitempty"`
}

// Config tunes the HTTP facade.
type Config struct {
	// JobTimeout caps every search's wall-clock (sync /optimize and
	// async jobs); a request's timeout_ms can only shorten it. 0 means
	// no server-side cap.
	JobTimeout time.Duration
	// MaxJobs bounds retained finished jobs (running jobs are never
	// evicted); 0 means DefaultMaxJobs.
	MaxJobs int
	// MaxRunning bounds concurrently *running* async jobs — each one is
	// a CPU-bound search goroutine, so without a cap a fast submitter
	// could starve the whole server. Submissions past the cap get HTTP
	// 429. 0 means max(4, 2×GOMAXPROCS).
	MaxRunning int
}

// Server is the HTTP facade over one shared Solver.
type Server struct {
	solver *magma.Solver
	cfg    Config
	jobs   *jobSet
}

// New wraps a Solver with default Config. Every request runs against it
// concurrently.
func New(solver *magma.Solver) *Server { return NewWith(solver, Config{}) }

// NewWith wraps a Solver with explicit Config.
func NewWith(solver *magma.Solver, cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 2 * runtime.GOMAXPROCS(0)
		if cfg.MaxRunning < 4 {
			cfg.MaxRunning = 4
		}
	}
	return &Server{solver: solver, cfg: cfg, jobs: newJobSet(cfg.MaxJobs, cfg.MaxRunning)}
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

// WriteJSON answers code with v as compact JSON: one value and a
// trailing newline, the bytes of json.Marshal(v) plus '\n'. v is
// marshalled before the status line goes out, so a value JSON cannot
// carry (a NaN or ±Inf float) is a 500 with an error body, never a
// status with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter is the backoff the server suggests when shedding load. One
// second is deliberately coarse: searches run for seconds, so an
// immediate retry would meet the same full table.
const retryAfter = time.Second

// writeOverloaded is the 429 load-shedding contract: a Retry-After
// header for standards-following clients plus a machine-readable body
// (code "overloaded", retry_after_ms, current occupancy and the limit)
// so programmatic callers can back off without parsing prose. README
// documents the retry contract.
func writeOverloaded(w http.ResponseWriter, running, limit int, detail string) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter/time.Second)))
	WriteJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":          detail,
		"code":           "overloaded",
		"retry_after_ms": retryAfter.Milliseconds(),
		"running":        running,
		"limit":          limit,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	WriteJSON(w, http.StatusOK, engineJSON(s.solver.Stats()))
}

// parseTask maps the wire task names onto models.Task (empty means the
// Mix benchmark).
func parseTask(name string) (models.Task, error) {
	if name == "" {
		return models.Mix, nil
	}
	return models.ParseTask(name)
}

// parseObjective maps the wire objective names onto magma.Objective.
func parseObjective(name string) (magma.Objective, error) {
	switch strings.ToLower(name) {
	case "", "throughput":
		return magma.Throughput, nil
	case "latency":
		return magma.Latency, nil
	case "energy":
		return magma.Energy, nil
	case "edp":
		return magma.EDP, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want throughput, latency, energy or edp)", name)
}

// workloadFor resolves the request's workload: inline document or
// generator spec.
func workloadFor(req *OptimizeRequest) (magma.Workload, error) {
	switch {
	case len(req.Workload) > 0 && req.Generate != nil:
		return magma.Workload{}, fmt.Errorf("set either workload or generate, not both")
	case len(req.Workload) > 0:
		return magma.ReadWorkloadJSON(bytes.NewReader(req.Workload))
	case req.Generate != nil:
		if n := req.Generate.NumJobs; n > maxGenerateJobs {
			return magma.Workload{}, fmt.Errorf("num_jobs %d exceeds the limit of %d", n, maxGenerateJobs)
		}
		task, err := parseTask(req.Generate.Task)
		if err != nil {
			return magma.Workload{}, err
		}
		return magma.GenerateWorkload(magma.WorkloadConfig{
			Task:      task,
			NumJobs:   req.Generate.NumJobs,
			GroupSize: req.Generate.GroupSize,
			Seed:      req.Generate.Seed,
		})
	}
	return magma.Workload{}, fmt.Errorf("missing workload: set workload (inline JSON) or generate (spec)")
}

// ResolveTarget resolves an OptimizeRequest's workload and platform —
// the prefix of request parsing the fleet router shares with the shard:
// computing each group's TableIdentity needs the concrete groups and
// the platform configuration but none of the search options. A group
// with fewer jobs than the platform has cores can never be searched,
// so such a request is refused here, before the router fans it out or
// the shard builds a table.
func ResolveTarget(req *OptimizeRequest) (magma.Workload, magma.Platform, error) {
	wl, err := workloadFor(req)
	if err != nil {
		return magma.Workload{}, magma.Platform{}, fmt.Errorf("workload: %w", err)
	}
	setting := req.Platform
	if setting == "" {
		setting = "S2"
	}
	pf, err := magma.PlatformBySetting(setting)
	if err != nil {
		return magma.Workload{}, magma.Platform{}, fmt.Errorf("platform: %w", err)
	}
	if req.BW > 0 {
		pf = pf.WithBW(req.BW)
	}
	for gi, g := range wl.Groups {
		if len(g.Jobs) < pf.NumAccels() {
			return magma.Workload{}, magma.Platform{}, fmt.Errorf("workload: group %d has %d jobs, fewer than the %d cores of platform %s",
				gi, len(g.Jobs), pf.NumAccels(), setting)
		}
	}
	return wl, pf, nil
}

// runSpec is a fully-parsed, validated request, ready to run.
type runSpec struct {
	wl      magma.Workload
	pf      magma.Platform
	opts    magma.StreamOptions
	timeout time.Duration // 0 = no cap
}

// parseRequest decodes and resolves an OptimizeRequest body into a
// runSpec (shared by the sync /optimize and async /jobs paths). Errors
// are client errors (HTTP 400).
func (s *Server) parseRequest(body io.Reader) (*runSpec, error) {
	var req OptimizeRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	wl, pf, err := ResolveTarget(&req)
	if err != nil {
		return nil, err
	}
	obj, err := parseObjective(req.Options.Objective)
	if err != nil {
		return nil, fmt.Errorf("options: %w", err)
	}
	spec := &runSpec{
		wl: wl,
		pf: pf,
		opts: magma.StreamOptions{
			Mapper:         req.Options.Mapper,
			Objective:      obj,
			BudgetPerGroup: req.Options.BudgetPerGroup,
			Seed:           req.Options.Seed,
			Cache:          true, // every search is answered from and recorded in the shard's memo
			WarmStart:      req.Options.WarmStart,
			SharedWarm:     req.Options.SharedWarm,
		},
		timeout: s.cfg.JobTimeout,
	}
	// Up-front validation turns deep-stack failures into immediate 400s
	// (unknown mapper, negative budget, warm sharing without warm start).
	if err := spec.opts.Validate(); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("options: negative timeout_ms %d", req.TimeoutMS)
	}
	if req.TimeoutMS > 0 {
		// Saturate instead of overflowing into a negative duration, which
		// would expire the search before its first generation.
		t := time.Duration(min(req.TimeoutMS, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
		if spec.timeout == 0 || t < spec.timeout {
			spec.timeout = t
		}
	}
	return spec, nil
}

// response assembles the wire reply from a stream result. Every served
// schedule is re-validated against its group before the Queues go on
// the wire — a corrupted mapping must fail the request, not leak to a
// client — with one sim.Validator for the response, so its scratch is
// grown once per response, not once per group.
func (s *Server) response(spec *runSpec, res magma.StreamResult, start time.Time) (OptimizeResponse, error) {
	resp := OptimizeResponse{
		Workload:         spec.wl.Name,
		Platform:         spec.pf.String(),
		TotalGFLOPs:      res.TotalGFLOPs,
		TotalSeconds:     res.TotalSeconds,
		ThroughputGFLOPs: res.ThroughputGFLOPs,
		Cache:            cacheJSON(res.Cache),
		Engine:           engineJSON(s.solver.Stats()),
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1e3,
		Partial:          res.Partial,
	}
	var v sim.Validator
	nAccels := spec.pf.NumAccels()
	for gi, sched := range res.Schedules {
		if err := v.Validate(sched.Mapping, len(spec.wl.Groups[gi].Jobs), nAccels); err != nil {
			return OptimizeResponse{}, fmt.Errorf("group %d schedule failed validation: %w", gi, err)
		}
		resp.Groups = append(resp.Groups, GroupSchedule{
			Index:            gi,
			Mapper:           sched.Mapper,
			Fitness:          sched.Fitness,
			ThroughputGFLOPs: sched.ThroughputGFLOPs,
			MakespanCycles:   sched.MakespanCycles,
			EnergyUnits:      sched.EnergyUnits,
			Queues:           sched.Mapping.Queues,
		})
	}
	return resp, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	spec, err := s.parseRequest(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The search runs under the request context, capped by the
	// per-request timeout: a dropped connection or the deadline aborts
	// it within one generation and returns the best-so-far prefix.
	ctx := r.Context()
	if spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.timeout)
		defer cancel()
	}
	res, err := s.solver.OptimizeStreamCtx(ctx, spec.wl, spec.pf, spec.opts)
	if err != nil {
		var mpe *magma.MapperPanicError
		code := http.StatusUnprocessableEntity
		switch {
		case errors.As(err, &mpe):
			// A mapper panic fails this run only; the Solver stays
			// consistent and keeps serving (see magma.MapperPanicError).
			code = http.StatusInternalServerError
		case r.Context().Err() != nil,
			errors.Is(err, context.Canceled),
			errors.Is(err, context.DeadlineExceeded):
			code = StatusClientClosedRequest
		}
		writeErr(w, code, "optimize: %v", err)
		return
	}
	resp, err := s.response(spec, res, start)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "optimize: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}
