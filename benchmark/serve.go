package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"magma"
	"magma/internal/fleet"
	"magma/internal/m3e"
	"magma/internal/serve"
	"magma/internal/sim"
)

// serveSystem is a served workload: a closed-loop client posting
// /optimize bodies over loopback HTTP. An untraced run drives real
// cmd/serve processes started with default flags (one shard, or a
// router in front of shards); a traced run hosts the same handlers
// in-process so that spans can wrap them.
type serveSystem struct {
	tf       traffic
	serveBin string
	logDir   string
	name     string
	tr       *tracer

	client *http.Client
	url    string // the front server: the router, or the only shard

	children []*child // untraced: the processes under test, in start order

	// Traced runs only.
	servers     []*http.Server
	serving     sync.WaitGroup
	solvers     []*magma.Solver // one per shard
	router      *fleet.Router
	twin        *magma.Solver // replays every op to time its search phases
	stats0      []magma.SolverStats
	router0     fleet.RouterStats
	captured    captured
	shardByHost map[string]string
}

// captured holds the router's sub-request and sub-response bodies of
// the op in flight, for the off-path decode and encode timings.
type captured struct {
	mu        sync.Mutex
	requests  [][]byte
	responses [][]byte
}

func (c *captured) take() (reqs, resps [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reqs, resps = c.requests, c.responses
	c.requests, c.responses = nil, nil
	return reqs, resps
}

func newServeSystem(cfg config, tf traffic) (*serveSystem, error) {
	if cfg.tracer == nil {
		if _, err := os.Stat(cfg.serveBin); err != nil {
			return nil, fmt.Errorf("cmd/serve binary: %w (build it with benchmark/run.sh)", err)
		}
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 4
	return &serveSystem{
		tf: tf, serveBin: cfg.serveBin, logDir: cfg.out, name: cfg.workload, tr: cfg.tracer,
		client: &http.Client{Transport: transport},
	}, nil
}

func shardName(k int) string { return fmt.Sprintf("shard%d", k) }

// setUp boots the servers, waits until they are healthy and sends the
// warm-up ops one at a time.
func (s *serveSystem) setUp(ctx context.Context) error {
	var err error
	if s.tr == nil {
		err = s.bootChildren(ctx)
	} else {
		err = s.bootInProcess()
	}
	if err != nil {
		return err
	}
	for _, spec := range s.tf.warmup {
		body, err := spec.body()
		if err != nil {
			return err
		}
		if _, err := s.post(body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if s.tr != nil {
			if _, err := s.replay(-1, body, m3e.CacheStats{}); err != nil {
				return err
			}
		}
	}
	if s.tr != nil {
		s.stats0 = s.stats0[:0]
		for _, sv := range s.solvers {
			s.stats0 = append(s.stats0, sv.Stats())
		}
		if s.router != nil {
			s.router0 = s.router.Stats()
		}
	}
	return nil
}

// bootChildren starts the shards, then the router when the workload has
// one, each as a cmd/serve process with default flags.
func (s *serveSystem) bootChildren(ctx context.Context) error {
	if err := os.MkdirAll(s.logDir, 0o755); err != nil {
		return err
	}
	logFile := func(role string) string { return filepath.Join(s.logDir, s.name+"-"+role+".log") }
	var shards []string
	for k := 0; k < max(s.tf.shards, 1); k++ {
		c, url, err := bootChild(ctx, s.serveBin, func(addr string) []string { return []string{"-addr", addr} }, logFile(shardName(k)))
		if err != nil {
			return err
		}
		s.children = append(s.children, c)
		s.url = url
		shards = append(shards, shardName(k)+"="+url)
	}
	if s.tf.shards == 0 {
		return nil
	}
	spec := strings.Join(shards, ",")
	c, url, err := bootChild(ctx, s.serveBin, func(addr string) []string { return []string{"-addr", addr, "-shards", spec} }, logFile("router"))
	if err != nil {
		return err
	}
	s.children = append(s.children, c)
	s.url = url
	return nil
}

// bootInProcess hosts the shard and router handlers in this process,
// configured as cmd/serve configures them by default, with a span
// around each handler and each router-to-shard forward.
func (s *serveSystem) bootInProcess() error {
	s.solvers = nil
	s.shardByHost = map[string]string{}
	var shards []fleet.Shard
	for k := 0; k < max(s.tf.shards, 1); k++ {
		solver := magma.NewSolver(magma.SolverOptions{})
		name := ""
		if s.tf.shards > 0 {
			name = shardName(k)
		}
		h := serve.NewWith(solver, serve.Config{JobTimeout: 10 * time.Minute}).Handler()
		url, err := s.listen(s.tr.handler("serve.handler", name, h))
		if err != nil {
			return err
		}
		s.solvers = append(s.solvers, solver)
		s.shardByHost[strings.TrimPrefix(url, "http://")] = name
		shards = append(shards, fleet.Shard{Name: shardName(k), URL: url})
		s.url = url
	}
	s.twin = magma.NewSolver(magma.SolverOptions{})
	if s.tf.shards == 0 {
		return nil
	}
	// The router's default transport, with a span per forward.
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConns = 256
	base.MaxIdleConnsPerHost = 64
	base.IdleConnTimeout = 90 * time.Second
	router, err := fleet.NewRouter(shards, fleet.Config{Transport: &tracedTransport{s: s, base: base}})
	if err != nil {
		return err
	}
	s.router = router
	url, err := s.listen(s.tr.handler("fleet.router", "", router.Handler()))
	s.url = url
	return err
}

func (s *serveSystem) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once tearDown closes it
	}()
	return "http://" + ln.Addr().String(), nil
}

// tearDown stops every server, router first, and waits for each.
func (s *serveSystem) tearDown() {
	s.client.CloseIdleConnections()
	for i := len(s.children) - 1; i >= 0; i-- {
		s.children[i].stop()
	}
	s.children = nil
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	s.serving.Wait()
	s.servers = nil
	s.router = nil
}

func (s *serveSystem) pids() []int {
	pids := make([]int, len(s.children))
	for i, c := range s.children {
		pids[i] = c.pid()
	}
	return pids
}

// post sends one /optimize body and returns the response body; any
// status but 200 is an error.
func (s *serveSystem) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// serveOut is what an op keeps for the correctness checks: its spec
// (the workload is regenerated from it) and the raw response.
type serveOut struct {
	spec opSpec
	raw  []byte
}

func (s *serveSystem) op(i int) opResult {
	spec := s.tf.spec(i)
	body, err := spec.body()
	if err != nil {
		return opResult{key: spec.key(), err: err}
	}
	if s.tr != nil {
		return s.tracedOp(i, spec, body)
	}
	start := time.Now()
	raw, err := s.post(body)
	return opResult{key: spec.key(), latency: time.Since(start), err: err, payload: serveOut{spec, raw}}
}

func (s *serveSystem) tracedOp(i int, spec opSpec, body []byte) opResult {
	tr := s.tr
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.cur.Store(int64(i))
	start := time.Now()
	raw, err := s.post(body)
	end := time.Now()
	tr.cur.Store(-1)
	tr.memStats(&before)
	tr.record(i, "op", "", start, end, 0)
	res := opResult{key: spec.key(), latency: end.Sub(start), err: err, payload: serveOut{spec, raw}}
	subReqs, subResps := s.captured.take()
	if err == nil {
		if err := s.probe(i, spec, body, raw, subReqs, subResps); err != nil {
			res.err = fmt.Errorf("probing layers: %w", err)
		}
	}
	return res
}

// probe times, off the op's path, the work the servers did for it: body
// decode and response encode at every hop, schedule validation, workload
// generation, and — on the twin solver, which has seen the same ops in
// the same order — the search itself, generation by generation.
func (s *serveSystem) probe(i int, spec opSpec, body, raw []byte, subReqs, subResps [][]byte) error {
	tr := s.tr
	tr.count("serve.request_bytes", float64(len(body)))
	tr.count("serve.response_bytes", float64(len(raw)))
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}

	tr.unit(i, "workload.generate", 1, func() { _, _ = magma.GenerateWorkload(spec.wl) })
	for _, b := range append([][]byte{body}, subReqs...) {
		var err error
		tr.unit(i, "serve.decode", 1, func() { _, _, err = decodeRequest(b) })
		if err != nil {
			return err
		}
	}
	responses := []serve.OptimizeResponse{resp}
	for _, b := range subResps {
		var sub serve.OptimizeResponse
		if err := json.Unmarshal(b, &sub); err != nil {
			return err
		}
		responses = append(responses, sub)
	}
	for _, r := range responses {
		tr.unit(i, "serve.encode", 1, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			_ = enc.Encode(r)
		})
	}

	wl, err := s.replay(i, body, cacheStatsOf(resp.Cache))
	if err != nil {
		return err
	}
	var v sim.Validator
	nAccels := platform().NumAccels()
	tr.unit(i, "serve.validate", 1, func() {
		for gi, g := range resp.Groups {
			if gi < len(wl.Groups) {
				_ = v.Validate(sim.Mapping{Queues: g.Queues}, len(wl.Groups[gi].Jobs), nAccels)
			}
		}
	})
	return nil
}

// replay solves a served body again on the twin solver, with the
// options cmd/serve gives a request by default, recording the search's
// generations and phases beside the served response's cache counters,
// and probing the layers beneath it (op -1 is a warm-up and records
// nothing).
func (s *serveSystem) replay(i int, body []byte, served m3e.CacheStats) (magma.Workload, error) {
	req, wl, err := decodeRequest(body)
	if err != nil {
		return wl, err
	}
	opts := magma.StreamOptions{
		Mapper:         req.Options.Mapper,
		BudgetPerGroup: req.Options.BudgetPerGroup,
		Seed:           req.Options.Seed,
		Cache:          true,
		Solver:         s.twin,
	}
	gens := make([]generations, len(wl.Groups))
	opts.Progress = func(g int, p magma.Progress) { gens[g].progress(p) }
	res, err := magma.OptimizeStream(wl, platform(), opts)
	if err != nil || i < 0 {
		return wl, err
	}
	for g := range gens {
		s.tr.generationsDone(i, &gens[g])
	}
	s.tr.addSearch(served, res.Phases, 0)
	for gi, sched := range res.Schedules {
		if err := s.tr.probeGroup(i, wl.Groups[gi], platform(), sched.Genome, sched.Mapping); err != nil {
			return wl, err
		}
	}
	return wl, nil
}

// decodeRequest decodes a body the way a shard does before searching.
func decodeRequest(body []byte) (serve.OptimizeRequest, magma.Workload, error) {
	var req serve.OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, magma.Workload{}, err
	}
	wl, _, err := serve.ResolveTarget(&req)
	return req, wl, err
}

func cacheStatsOf(c serve.CacheJSON) m3e.CacheStats {
	return m3e.CacheStats{
		Hits: c.Hits, CrossHits: c.CrossHits, Deduped: c.Deduped, Misses: c.Misses, Invalid: c.Invalid,
		FullFP: c.FPFull, IncrementalFP: c.FPIncremental, CleanFP: c.FPClean,
		BoundChecked: c.BoundChecked, BoundPruned: c.BoundPruned,
	}
}

// finishTrace adds the servers' own counters over the measured window.
func (s *serveSystem) finishTrace() {
	for k, sv := range s.solvers {
		s.tr.addEngine(s.stats0[k], sv.Stats())
	}
	if s.router != nil {
		r := s.router.Stats()
		s.tr.count("fleet.requests", float64(r.Requests-s.router0.Requests))
		s.tr.count("fleet.fanouts", float64(r.FanOuts-s.router0.FanOuts))
		s.tr.count("fleet.forwarded", float64(r.Forwarded-s.router0.Forwarded))
		s.tr.count("fleet.retries", float64(r.Retries+r.Retried429-s.router0.Retries-s.router0.Retried429))
	}
}

// tracedTransport is the router's forwarding transport with a span per
// forward, from sending the sub-request until its reply has been read.
type tracedTransport struct {
	s    *serveSystem
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op := int(t.s.tr.cur.Load())
	if op < 0 || r.URL.Path != "/optimize" || r.GetBody == nil {
		return t.base.RoundTrip(r)
	}
	if b, err := r.GetBody(); err == nil {
		sub, _ := io.ReadAll(b)
		t.s.captured.mu.Lock()
		t.s.captured.requests = append(t.s.captured.requests, sub)
		t.s.captured.mu.Unlock()
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, op: op, where: t.s.shardByHost[r.URL.Host], start: start}
	return resp, nil
}

// tracedBody ends a forward's span when the router closes the reply.
type tracedBody struct {
	io.ReadCloser
	t     *tracedTransport
	op    int
	where string
	start time.Time
	buf   bytes.Buffer
	once  sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.s.tr.record(b.op, "fleet.forward", b.where, b.start, time.Now(), 0)
		c := &b.t.s.captured
		c.mu.Lock()
		c.responses = append(c.responses, b.buf.Bytes())
		c.mu.Unlock()
	})
	return err
}

// verify checks every served op: each group's mapping is valid and
// re-simulates to exactly its reported evaluation; repeated bodies got
// byte-identical groups; and sampled bodies match a fresh single Solver.
// Quality counts each distinct body once.
func (s *serveSystem) verify(ops []opResult, qualityOps int) error {
	var v sim.Validator
	seen := map[string][]byte{}
	type resolved struct {
		wl     magma.Workload
		probs  []*m3e.Problem
		herald float64 // summed Herald-like makespans of the groups
	}
	memo := map[string]resolved{}
	for i := range ops {
		op := &ops[i]
		if op.err != nil {
			continue
		}
		out, ok := op.payload.(serveOut)
		if !ok {
			op.err = fmt.Errorf("op %d: no response recorded", i)
			continue
		}
		key := out.spec.key()
		r, known := memo[key]
		if !known {
			wl, err := magma.GenerateWorkload(out.spec.wl)
			if err != nil {
				return err
			}
			r = resolved{wl: wl}
			for _, g := range wl.Groups {
				prob, err := m3e.NewProblem(g, platform(), m3e.Throughput)
				if err != nil {
					return err
				}
				r.probs = append(r.probs, prob)
				if i < qualityOps {
					h, err := heraldMakespan(g, platform())
					if err != nil {
						return err
					}
					r.herald += h
				}
			}
			memo[key] = r
		}
		var resp struct {
			Groups  json.RawMessage `json:"groups"`
			Partial bool            `json:"partial"`
		}
		var groups []serve.GroupSchedule
		err := json.Unmarshal(out.raw, &resp)
		if err == nil {
			err = json.Unmarshal(resp.Groups, &groups)
		}
		if err == nil {
			err = s.checkOp(&v, r.wl, r.probs, groups, resp.Partial)
		}
		if err == nil {
			err = checkIdentical(seen, key, resp.Groups)
		}
		if err == nil && !known && s.tf.resolveEvery > 0 && (len(memo)-1)%s.tf.resolveEvery == 0 {
			var local magma.StreamResult
			local, err = magma.OptimizeStream(r.wl, platform(), magma.StreamOptions{
				Mapper: out.spec.search.Mapper, BudgetPerGroup: out.spec.search.BudgetPerGroup,
				Seed: out.spec.search.Seed, Cache: true,
			})
			if err == nil {
				err = checkResolved(groups, local)
			}
		}
		if err != nil {
			op.err = fmt.Errorf("op %d: %w", i, err)
			continue
		}
		var d digestWriter
		var makespan float64
		for _, g := range groups {
			d.schedule(g.Queues, evaluationOfGroup(g))
			makespan += g.MakespanCycles
		}
		op.sum = d.sum()
		if i < qualityOps && !known {
			op.quality, op.rated = r.herald/makespan, true
		}
	}
	return nil
}

func (s *serveSystem) checkOp(v *sim.Validator, wl magma.Workload, probs []*m3e.Problem, groups []serve.GroupSchedule, partial bool) error {
	if partial {
		return errors.New("partial result")
	}
	if len(groups) != len(wl.Groups) {
		return fmt.Errorf("%d groups returned for a %d-group workload", len(groups), len(wl.Groups))
	}
	for gi, g := range groups {
		if g.Index != gi {
			return fmt.Errorf("group %d returned at position %d", g.Index, gi)
		}
		if err := checkMapping(v, probs[gi], g.Queues, evaluationOfGroup(g)); err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
	}
	return nil
}
