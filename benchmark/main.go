// Command benchmark is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time against the shipped defaults,
// checks every result, and prints its metrics as one JSON line:
//
//	bash benchmark/run.sh --workload search-g100 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload again with spans around each layer and reports the
// per-layer metrics. `compare` summarizes result files (see compare.go).
// README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings. Only the workload, its seed and the run
// length define what is measured; the rest say where things live.
type config struct {
	workload string
	seed     int64
	seconds  float64
	serveBin string
	out      string
	tracer   *tracer // nil in an untraced run
}

// system is one workload's program under test, as the harness drives it.
type system interface {
	// setUp brings the system to its first timed op. The harness times
	// it setupReps times, tearing down in between, and measures on the
	// last.
	setUp(ctx context.Context) error
	tearDown()
	// op runs op i.
	op(i int) opResult
	// pids are the processes under test; a traced run, which hosts the
	// program in-process, has none and reports no CPU time or memory.
	pids() []int
	// verify re-checks every op after the window, outside all timers. It
	// marks each failing op and fills in the rest's digest, and the
	// quality of those among the first qualityOps that it rates.
	verify(ops []opResult, qualityOps int) error
	// finishTrace adds the counters a traced run reads after the window.
	finishTrace()
}

type opResult struct {
	// key names the op's input. Every workload cycles through a fixed set
	// of inputs, and ops with one key do the same work.
	key     string
	latency time.Duration
	cpu     time.Duration // used by the processes under test during the op
	err     error
	payload any // what verify needs, kept by the system that ran the op
	sum     [32]byte
	// quality is the returned schedules' throughput over the Herald-like
	// heuristic's on the same groups; rated marks ops that carry one.
	quality float64
	rated   bool
}

// setupReps is how often a run sets up; it reports the median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "worker":
			return runWorker(args[1:], os.Stdin, stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: search-g100, search-g16, serve-repeat or fleet-distinct")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/serve", "cmd/serve binary the served workloads start")
	fs.StringVar(&cfg.out, "out", ".bench_build/results", "directory for result, span and server log files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	w, err := workloadNamed(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if trace == 1 {
		cfg.tracer = newTracer()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := measure(ctx, w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := rec.write(cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec.print(stdout)
	if !rec.Result.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d ops failed; first failure: %s\n", rec.Result.Failed, rec.Result.Attempted, rec.FirstFailure)
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the result file a run writes: the result plus everything
// needed to reproduce and compare it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Env        env     `json:"env"`
	SetupReps  int     `json:"setup_reps"`
	Ops        int     `json:"ops"`
	Inputs     int     `json:"inputs"` // distinct inputs among the ops
	QualityOps int     `json:"quality_ops"`
	// OpsPerS and OpP50Ms summarize the window in traced runs too, where
	// the metrics are per-layer, so tracing overhead can be read off.
	OpsPerS      float64 `json:"ops_per_s"`
	OpP50Ms      float64 `json:"op_p50_ms"`
	ResultDigest string  `json:"result_digest"`
	FirstFailure string  `json:"first_failure,omitempty"`
	Result       result  `json:"result"`

	spans *tracer
}

type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUs       string `json:"cpus"` // the CPUs the run may use
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func environment() env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUs: allowedCPUs(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// measure sets the workload up setupReps times, runs its closed loop for
// the configured time, verifies every op and computes the metrics.
func measure(ctx context.Context, w workload, cfg config) (*record, error) {
	sys, err := w.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()
	reps := setupReps
	if cfg.tracer != nil {
		reps = 1 // a traced run reports no set-up time
	}
	setups := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			sys.tearDown()
		}
		start := time.Now()
		if err := sys.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ops, rssKB, err := closedLoop(ctx, sys, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if cfg.tracer != nil {
		sys.finishTrace()
	}
	if err := sys.verify(ops, w.qualityOps); err != nil {
		return nil, fmt.Errorf("verifying: %w", err)
	}

	rec := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.tracer != nil,
		Env: environment(), SetupReps: reps, Ops: len(ops),
		spans: cfg.tracer,
	}
	var quality []float64
	for i, op := range ops {
		if op.err != nil {
			if rec.Result.Failed == 0 {
				rec.FirstFailure = op.err.Error()
			}
			rec.Result.Failed++
			continue
		}
		if i < w.qualityOps && op.rated {
			quality = append(quality, op.quality)
		}
	}
	rec.QualityOps = min(len(ops), w.qualityOps)
	rec.ResultDigest = resultDigest(ops, rec.QualityOps)
	rec.Result.Attempted = len(ops)
	rec.Result.Correct = rec.Result.Failed == 0 && len(ops) > 0
	if len(ops) == 0 {
		rec.FirstFailure = "no op completed in the window"
	}
	best := bestRuns(ops)
	rec.Inputs, rec.OpsPerS, rec.OpP50Ms = best.inputs, best.opsPerS, best.p50Ms
	var values map[string]float64
	if cfg.tracer == nil {
		values = map[string]float64{
			"setup_s":           median(setups),
			"ops_per_s":         best.opsPerS,
			"op_p50_ms":         best.p50Ms,
			"op_p90_ms":         best.p90Ms,
			"cpu_ms_per_op":     best.cpuMs,
			"rss_peak_mb":       float64(rssKB) / 1024,
			"quality_vs_herald": mean(quality),
		}
	} else {
		values = cfg.tracer.layerMetrics(len(ops) - rec.Result.Failed)
	}
	rec.Result.Metrics = metricsOf(values, cfg.tracer != nil)
	return rec, nil
}

// summary describes a window by the best run of each input. Ops that
// repeat an input do the same work, so the fastest of them is the one
// the rest of the host disturbed least; on a shared host whose speed
// swings from second to second that is what stays put from run to run,
// while a plain median or mean follows the neighbours.
type summary struct {
	inputs  int     // distinct inputs that completed
	p50Ms   float64 // median over inputs of their best latency
	p90Ms   float64 // nearest-rank 90th percentile of the same
	opsPerS float64 // ops per second with every op at its input's best
	cpuMs   float64 // mean CPU per op with every op at its input's least
}

func bestRuns(ops []opResult) summary {
	type runs struct{ latency, cpu time.Duration }
	byKey := map[string]runs{}
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		r, seen := byKey[op.key]
		if !seen || op.latency < r.latency {
			r.latency = op.latency
		}
		if !seen || op.cpu < r.cpu {
			r.cpu = op.cpu
		}
		byKey[op.key] = r
	}
	latencies := make([]float64, 0, len(byKey))
	for _, r := range byKey {
		latencies = append(latencies, float64(r.latency)/1e6)
	}
	// Weigh each input by how often the workload sent it.
	var n int
	var latency, cpu time.Duration
	for _, op := range ops {
		if op.err == nil {
			n++
			latency += byKey[op.key].latency
			cpu += byKey[op.key].cpu
		}
	}
	return summary{
		inputs:  len(byKey),
		p50Ms:   percentile(latencies, 0.50),
		p90Ms:   percentile(latencies, 0.90),
		opsPerS: float64(n) / latency.Seconds(),
		cpuMs:   float64(cpu) / 1e6 / float64(n),
	}
}

// metricsOf attaches units to the run's metrics. A value that could not
// be measured (a window with no completed op) reads 0; such a run is
// never correct.
func metricsOf(values map[string]float64, traced bool) map[string]metric {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// closedLoop runs one caller, which sends its next op only after the
// previous one returned, until the window ends; the op in flight at the
// deadline completes and counts. It reads the CPU time of the processes
// under test around each op, and their peak resident set at the end.
func closedLoop(ctx context.Context, sys system, length time.Duration) (ops []opResult, rssKB int64, err error) {
	pids := sys.pids()
	deadline := time.Now().Add(length)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		cpu0, err := cpuTime(pids)
		if err != nil {
			return nil, 0, err
		}
		r := sys.op(i)
		cpu1, err := cpuTime(pids)
		if err != nil {
			return nil, 0, err
		}
		r.cpu = cpu1 - cpu0
		ops = append(ops, r)
	}
	rssKB, err = peakRSS(pids)
	return ops, rssKB, err
}

// write stores the record (and a traced run's spans) under cfg.out.
func (r *record) write(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%d", r.Workload, r.Seed, boolInt(r.Trace), time.Now().UnixNano()))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.writeSpans(base + ".spans.json")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes a human-readable summary, then the result as the last
// line.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops over %d inputs in %gs on CPUs %s, %d failed, %s %s\n",
		r.Workload, r.Seed, r.Ops, r.Inputs, r.Seconds, r.Env.CPUs, r.Result.Failed, r.Env.GoVersion, r.Env.Revision)
	fmt.Fprintf(w, "result_digest %s (first %d ops)\n", r.ResultDigest, r.QualityOps)
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(r.Result) // metricsOf leaves no NaN or Inf to refuse
	fmt.Fprintf(w, "%s\n", line)
}
