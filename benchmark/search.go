package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"magma"
	"magma/internal/encoding"
	"magma/internal/m3e"
	"magma/internal/sim"
)

// searchSystem is a library workload: one serial caller of
// magma.Optimize, each op a Mix group from the run's pool mapped with
// the shipped defaults at the paper's 10000-sample budget. Each call
// starts from scratch, so an op that repeats an input repeats its work.
// An untraced run makes the calls in a worker process of its own (this
// binary, run as `worker`), so the CPU time and peak memory it reports
// are the library's alone, not the benchmark's records of earlier ops.
// A traced run makes them in-process, inside its spans.
type searchSystem struct {
	name    string
	seed    int64
	jobs    int
	pool    int // distinct inputs the ops cycle through
	pf      magma.Platform
	tr      *tracer // nil in an untraced run
	logDir  string
	warmups int

	worker *child // untraced runs only
	in     io.WriteCloser
	pipe   *os.File // the read end of the worker's output
	out    *bufio.Reader
}

// searchBudget is the paper's sampling budget (§VI-B).
const searchBudget = 10000

func newSearchSystem(cfg config, jobs, pool int) *searchSystem {
	return &searchSystem{name: cfg.workload, seed: cfg.seed, jobs: jobs, pool: pool, pf: magma.PlatformS2().WithBW(16),
		tr: cfg.tracer, logDir: cfg.out}
}

// input is the group and search seed of the stream's i-th search; the
// timed searches cycle through the pool.
func (s *searchSystem) input(stream uint64, i int) (magma.Group, int64, error) {
	if stream == streamSearch {
		i %= s.pool
	}
	seed := inputSeed(s.seed, stream, i)
	g, err := searchGroup(s.jobs, seed)
	return g, seed, err
}

func searchGroup(jobs int, seed int64) (magma.Group, error) {
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: magma.Mix, NumJobs: jobs, GroupSize: jobs, Seed: seed})
	if err != nil {
		return magma.Group{}, err
	}
	return wl.Groups[0], nil
}

// searchOptions sets only what defines the workload: mapper, budget and
// seed. Every performance setting (cache, bound, workers) keeps its
// default.
func searchOptions(seed int64) magma.Options {
	return magma.Options{Mapper: "MAGMA", Budget: searchBudget, Seed: seed}
}

// searchOut is one search as the worker reports it: how long the library
// call took and what it returned.
type searchOut struct {
	Op        int             `json:"op"`
	Nanos     int64           `json:"ns"`
	Err       string          `json:"err,omitempty"`
	InputSeed int64           `json:"input_seed"`
	Queues    [][]int         `json:"queues"`
	Genome    encoding.Genome `json:"genome"`
	Fitness   float64         `json:"fitness"`
	GFLOPs    float64         `json:"throughput_gflops"`
	Makespan  float64         `json:"makespan_cycles"`
	Energy    float64         `json:"energy_units"`
}

func (o searchOut) evaluation() evaluation {
	return evaluation{fitness: o.Fitness, throughput: o.GFLOPs, makespan: o.Makespan, energy: o.Energy}
}

// search runs the stream's i-th search and times the library call.
func (s *searchSystem) search(stream uint64, i int) searchOut {
	out := searchOut{Op: i}
	g, seed, err := s.input(stream, i)
	if err == nil {
		out.InputSeed = seed
		start := time.Now()
		var sched magma.Schedule
		sched, err = magma.Optimize(g, s.pf, searchOptions(seed))
		out.Nanos = time.Since(start).Nanoseconds()
		out.Queues, out.Genome = sched.Mapping.Queues, sched.Genome
		out.Fitness, out.GFLOPs, out.Makespan, out.Energy = sched.Fitness, sched.ThroughputGFLOPs, sched.MakespanCycles, sched.EnergyUnits
	}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// runWorker serves searches over its standard input and output: each
// request line is "warmup K" or "op I", each reply one searchOut as JSON.
// It exits when its input closes.
func runWorker(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "search workload to serve")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadNamed(*name)
	if err != nil {
		fmt.Fprintln(stderr, "worker:", err)
		return 2
	}
	sys, err := w.newSystem(config{workload: *name, seed: *seed})
	s, ok := sys.(*searchSystem)
	if err != nil || !ok {
		fmt.Fprintf(stderr, "worker: %s is not a search workload\n", *name)
		return 2
	}
	in := bufio.NewScanner(stdin)
	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	for in.Scan() {
		var kind string
		var i int
		if _, err := fmt.Sscan(in.Text(), &kind, &i); err != nil {
			fmt.Fprintln(stderr, "worker: bad request:", in.Text())
			return 2
		}
		stream := streamSearch
		if kind == "warmup" {
			stream = streamWarmup
		}
		if err := enc.Encode(s.search(stream, i)); err != nil {
			fmt.Fprintln(stderr, "worker:", err)
			return 1
		}
		if err := out.Flush(); err != nil {
			fmt.Fprintln(stderr, "worker:", err)
			return 1
		}
	}
	return 0
}

// setUp runs one untimed warm-up search on an input of its own; an
// untraced run first starts the worker that runs it.
func (s *searchSystem) setUp(context.Context) error {
	k := s.warmups
	s.warmups++
	if s.tr != nil {
		out := s.search(streamWarmup, k)
		if out.Err != "" {
			return fmt.Errorf("warm-up: %s", out.Err)
		}
		return nil
	}
	if err := s.startWorker(); err != nil {
		return err
	}
	_, err := s.call("warmup", k)
	return err
}

func (s *searchSystem) startWorker() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.logDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command(exe, "worker", "--workload", s.name, "--seed", strconv.FormatInt(s.seed, 10))
	if s.in, err = cmd.StdinPipe(); err != nil {
		return err
	}
	// A pipe of our own, not cmd.StdoutPipe: Wait, which runs as soon as
	// the worker starts, would close that one under a pending read.
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd.Stdout = w
	s.worker, err = startChild(cmd, filepath.Join(s.logDir, s.name+"-worker.log"))
	w.Close()
	if err != nil {
		r.Close()
		return err
	}
	s.pipe, s.out = r, bufio.NewReaderSize(r, 64<<10)
	return nil
}

// call sends one request to the worker and waits for its reply.
func (s *searchSystem) call(kind string, i int) (searchOut, error) {
	var out searchOut
	if _, err := fmt.Fprintf(s.in, "%s %d\n", kind, i); err != nil {
		return out, fmt.Errorf("worker: %w", err)
	}
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return out, fmt.Errorf("worker: %w", err)
	}
	if err := json.Unmarshal(line, &out); err != nil {
		return out, fmt.Errorf("worker: %w", err)
	}
	if out.Err != "" {
		return out, fmt.Errorf("%s %d: %s", kind, i, out.Err)
	}
	return out, nil
}

// tearDown closes the worker's input, which ends it, and waits for it.
func (s *searchSystem) tearDown() {
	if s.worker == nil {
		return
	}
	s.in.Close()
	select {
	case <-s.worker.done:
	case <-time.After(10 * time.Second):
	}
	s.worker.stop()
	s.pipe.Close()
	s.worker = nil
}

func (s *searchSystem) pids() []int {
	if s.worker == nil {
		return nil
	}
	return []int{s.worker.pid()}
}

func (s *searchSystem) key(i int) string { return strconv.Itoa(i % s.pool) }

func (s *searchSystem) op(i int) opResult {
	if s.tr != nil {
		return s.tracedOp(i)
	}
	out, err := s.call("op", i)
	return opResult{key: s.key(i), latency: time.Duration(out.Nanos), err: err, payload: out}
}

// tracedOp runs the op in-process on an explicit single-use Solver —
// exactly what magma.Optimize does internally — so the engine's counters
// can be read, with a Progress observer timing each generation.
func (s *searchSystem) tracedOp(i int) opResult {
	tr := s.tr
	genStart := time.Now()
	g, seed, err := s.input(streamSearch, i)
	tr.record(i, "workload.generate", "", genStart, time.Now(), 1)
	if err != nil {
		return opResult{key: s.key(i), err: err}
	}
	solver := magma.NewSolver(magma.SolverOptions{})
	opts := searchOptions(seed)
	var gens generations
	opts.Progress = gens.progress
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sched, err := solver.Optimize(g, s.pf, opts)
	end := time.Now()
	tr.memStats(&before)
	tr.record(i, "op", "", start, end, 0)
	tr.generationsDone(i, &gens)
	out := searchOut{Op: i, Nanos: end.Sub(start).Nanoseconds(), InputSeed: seed,
		Queues: sched.Mapping.Queues, Genome: sched.Genome, Fitness: sched.Fitness,
		GFLOPs: sched.ThroughputGFLOPs, Makespan: sched.MakespanCycles, Energy: sched.EnergyUnits}
	res := opResult{key: s.key(i), latency: end.Sub(start), err: err, payload: out}
	if err != nil {
		return res
	}
	tr.addEngine(magma.SolverStats{}, solver.Stats())
	tr.addSearch(sched.Cache, sched.Phases, sched.Asked)
	if err := tr.probeGroup(i, g, s.pf, sched.Genome, sched.Mapping); err != nil {
		res.err = fmt.Errorf("probing layers: %w", err)
	}
	return res
}

// verify regenerates each op's group and re-checks its schedule: the
// mapping is a valid placement, the genome decodes to it, a fresh
// simulation reproduces the reported evaluation bit for bit, and every
// search of one input returned the same schedule.
func (s *searchSystem) verify(ops []opResult, qualityOps int) error {
	var v sim.Validator
	first := map[string][32]byte{}
	for i := range ops {
		op := &ops[i]
		if op.err != nil {
			continue
		}
		out, ok := op.payload.(searchOut)
		if !ok {
			op.err = fmt.Errorf("op %d: no schedule recorded", i)
			continue
		}
		g, err := s.checkOp(&v, out)
		if err == nil && i < qualityOps {
			var herald float64
			herald, err = heraldMakespan(g, s.pf)
			op.quality, op.rated = herald/out.Makespan, true
		}
		if err != nil {
			op.err = fmt.Errorf("op %d: %w", i, err)
			continue
		}
		var d digestWriter
		d.schedule(out.Queues, out.evaluation())
		op.sum = d.sum()
		if sum, seen := first[op.key]; !seen {
			first[op.key] = op.sum
		} else if sum != op.sum {
			op.err = fmt.Errorf("op %d: input %s gave a different schedule than its first search", i, op.key)
		}
	}
	return nil
}

func (s *searchSystem) checkOp(v *sim.Validator, out searchOut) (magma.Group, error) {
	g, err := searchGroup(s.jobs, out.InputSeed)
	if err != nil {
		return g, err
	}
	prob, err := m3e.NewProblem(g, s.pf, m3e.Throughput)
	if err != nil {
		return g, err
	}
	if err := checkGenome(out.Genome, s.pf.NumAccels(), out.Queues); err != nil {
		return g, err
	}
	return g, checkMapping(v, prob, out.Queues, out.evaluation())
}

// finishTrace has nothing to add: each traced op already counted its
// own single-use engine.
func (s *searchSystem) finishTrace() {}
