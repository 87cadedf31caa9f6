// Command bench collects the perf evidence tracked across PRs and
// checks it against one gate table (gate.go). By default it runs the
// hot-path benchmarks of the packages that own them plus full MAGMA
// searches, and writes BENCH_eval.json. With -serve it load-tests the
// cmd/serve handler in-process over one shared Solver with a
// repeated-workload request mix from concurrent keep-alive clients,
// and writes BENCH_serve.json; -chaos arms fault injection (mapper
// panics, delayed simulations, snapshot write errors) and writes
// BENCH_serve_chaos.json; -fleet N drives the mix through a single
// node and then a router over N shards and writes BENCH_fleet.json
// (its hit-rate gate assumes one client, so both legs replay one
// request sequence).
//
//	bench -benchtime 200ms
//	bench -serve -requests 48 -clients 8
//	bench -serve -chaos
//	bench -serve -fleet 3 -clients 1
//
// Every run ends by checking the gates for its report against the
// JSON it just wrote; bench exits non-zero and names each failed gate.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"magma/internal/m3e"
	"magma/internal/models"
	optmagma "magma/internal/opt/magma"
	"magma/internal/platform"
	"magma/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run parses the flags, runs the selected mode, writes its report and
// checks the report's gates.
func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out       = fs.String("o", "", "output path for the JSON report (default BENCH_eval.json, or BENCH_serve.json, BENCH_serve_chaos.json or BENCH_fleet.json by mode)")
		benchtime = fs.String("benchtime", "1s", "go test -benchtime for the package benchmarks")
		serveMode = fs.Bool("serve", false, "load-test the HTTP service instead")
		requests  = fs.Int("requests", 24, "serve mode: total requests to fire")
		clients   = fs.Int("clients", 4, "serve mode: concurrent clients")
		chaos     = fs.Bool("chaos", false, "serve mode: arm fault injection (mapper panics, delayed simulations, simulator-kernel stalls, snapshot write errors) and report recovered-error counts")
		fleetN    = fs.Int("fleet", 0, "serve mode: stand up this many shard servers behind the rendezvous router and load-test through it, with a single-node baseline in the same run (0 = single node)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*chaos || *fleetN > 0) && !*serveMode {
		return errors.New("-chaos and -fleet require -serve")
	}
	if *chaos && *fleetN > 0 {
		return errors.New("-chaos drives a single node; fleet fault tolerance is exercised by the router failover tests and the CI kill-a-shard smoke run")
	}
	var rep any
	var err error
	kind, defOut := "serve", ""
	switch {
	case *fleetN > 0:
		defOut = "BENCH_fleet.json"
		rep, err = fleetLoadTest(*requests, *clients, *fleetN)
	case *chaos:
		defOut = "BENCH_serve_chaos.json"
		rep, err = serveLoadTest(*requests, *clients, true)
	case *serveMode:
		defOut = "BENCH_serve.json"
		rep, err = serveLoadTest(*requests, *clients, false)
	default:
		kind, defOut = "eval", "BENCH_eval.json"
		rep, err = evalReport(*benchtime)
	}
	if err != nil {
		return err
	}
	path := cmp.Or(*out, defOut)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		return err
	}
	return check(os.Stdout, kind, doc)
}

// Measurement is one benchmark result line of the JSON artifact.
type Measurement struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the BENCH_eval.json schema.
type Report struct {
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	CPU          string        `json:"cpu"` // as go test reports it
	GroupSize    int           `json:"group_size"`
	Measurements []Measurement `json:"measurements"`
	// KernelSpeedup is BenchmarkKernel's v1 oracle time over the shipped
	// kernel's at 100 jobs on 16 cores.
	KernelSpeedup float64 `json:"kernel_speedup"`
	// VirtualSpeedup is BenchmarkVirtualMakespan's Run time over the
	// virtual-time makespan's at 100 jobs on 4 cores: what pricing a
	// schedule saves the pruning pass against simulating it.
	VirtualSpeedup float64 `json:"virtual_speedup"`
	// PhaseBreakdown times the phases of a full MAGMA search as the
	// library and cmd/serve ship it: pruned, on the one evaluation path
	// (the bound report's pruned run).
	PhaseBreakdown PhaseBreakdown `json:"phase_breakdown"`
	// BoundPruneRate is the fraction of missed candidates the runner's
	// analytical bound kept from the simulator over a full MAGMA search
	// with the library defaults; Bound is the comparison behind it.
	BoundPruneRate float64     `json:"bound_prune_rate"`
	Bound          BoundReport `json:"bound"`
}

// BoundReport compares one full MAGMA search with bound pruning on
// against the unpruned reference (an optimizer wrapper that hides
// EliteSelector) at the same seed: the search is identical either way,
// only simulator traffic and generation time change.
type BoundReport struct {
	Mapper    string `json:"mapper"`
	GroupSize int    `json:"group_size"`
	Budget    int    `json:"budget"`
	// Checked / Pruned count candidates tested against an elite floor
	// and those it proved hopeless.
	Checked uint64 `json:"checked"`
	Pruned  uint64 `json:"pruned"`
	// OffNsPerGen / OnNsPerGen are full-generation wall clocks (ask +
	// bound + simulate + tell) without and with pruning; GenSpeedup is
	// their ratio.
	OffNsPerGen float64 `json:"off_ns_per_gen"`
	OnNsPerGen  float64 `json:"on_ns_per_gen"`
	GenSpeedup  float64 `json:"gen_speedup"`
	// BoundNsPerGen is the pass's own cost per generation;
	// PruneRateByGroupSize repeats the bound-on search per group size.
	BoundNsPerGen        float64            `json:"bound_ns_per_gen"`
	PruneRateByGroupSize map[string]float64 `json:"prune_rate_by_group_size"`
}

// PhaseBreakdown holds the per-phase wall clocks of one search, as its
// only row.
type PhaseBreakdown struct {
	Mapper    string     `json:"mapper"`
	GroupSize int        `json:"group_size"`
	Budget    int        `json:"budget"`
	Rows      []PhaseRow `json:"rows"`
}

// PhaseRow is one search's per-generation phase timings.
type PhaseRow struct {
	Generations      int     `json:"generations"`
	NsPerGen         float64 `json:"ns_per_gen"`
	AskNsPerGen      float64 `json:"ask_ns_per_gen"`
	BoundNsPerGen    float64 `json:"bound_ns_per_gen"`
	SimulateNsPerGen float64 `json:"simulate_ns_per_gen"`
	TellNsPerGen     float64 `json:"tell_ns_per_gen"`
	TellShare        float64 `json:"tell_share"` // tell's fraction of the generation
	// Reasks counts the re-asks the runner settled from the previous
	// batch's exact fitness (CacheStats.Hits).
	Reasks uint64 `json:"reasks"`
}

// benchPackages are the packages whose benchmarks the eval report
// collects.
var benchPackages = []string{
	"magma/internal/m3e",
	"magma/internal/encoding",
	"magma/internal/sim",
	"magma/internal/opt/magma",
	"magma/internal/workload",
}

// groupSize is the paper's group size (§VI-B), the standard problem of
// the eval report's searches.
const groupSize = 100

// evalReport runs the package benchmarks and the full searches behind
// the eval report.
func evalReport(benchtime string) (*Report, error) {
	cmd := exec.Command("go", append([]string{"test", "-run=NONE", "-bench=.", "-benchmem", "-benchtime=" + benchtime}, benchPackages...)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	os.Stdout.Write(raw)
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	ms, cpu, err := parseBench(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpu,
		GroupSize:    groupSize,
		Measurements: ms,
	}
	ns := map[string]float64{}
	for _, m := range ms {
		ns[m.Package+"."+m.Name] = m.NsPerOp
	}
	if shipped := ns["magma/internal/sim.Kernel/jobs=100/accels=16/shipped"]; shipped > 0 {
		rep.KernelSpeedup = ns["magma/internal/sim.Kernel/jobs=100/accels=16/v1oracle"] / shipped
	}
	if virtual := ns["magma/internal/sim.VirtualMakespan/jobs=100/accels=4/virtual"]; virtual > 0 {
		rep.VirtualSpeedup = ns["magma/internal/sim.VirtualMakespan/jobs=100/accels=4/run"] / virtual
	}

	var ss searches
	prob := ss.problem(groupSize, 51)
	newMAGMA := func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }

	// Analytical pruning against the unpruned reference; the searches
	// must be bit-identical. The pruned run is the shipped search, so
	// its row is also the phase breakdown.
	off, offRow := ss.run(prob, unpruned{newMAGMA()}, m3e.Options{}, 6)
	on, onRow := ss.run(prob, newMAGMA(), m3e.Options{}, 6)
	if on.BestFitness != off.BestFitness || !reflect.DeepEqual(on.Curve, off.Curve) {
		return nil, errors.New("bound pruning changed the search: best/curve diverged from the unpruned run")
	}
	rep.BoundPruneRate = on.Cache.BoundPruneRate()
	rep.Bound = BoundReport{
		Mapper:               "MAGMA",
		GroupSize:            groupSize,
		Budget:               m3e.DefaultBudget,
		Checked:              on.Cache.BoundChecked,
		Pruned:               on.Cache.BoundPruned,
		OffNsPerGen:          offRow.NsPerGen,
		OnNsPerGen:           onRow.NsPerGen,
		GenSpeedup:           offRow.NsPerGen / onRow.NsPerGen,
		BoundNsPerGen:        onRow.BoundNsPerGen,
		PruneRateByGroupSize: map[string]float64{fmt.Sprint(groupSize): rep.BoundPruneRate},
	}
	rep.PhaseBreakdown = PhaseBreakdown{Mapper: "MAGMA", GroupSize: groupSize, Budget: m3e.DefaultBudget, Rows: []PhaseRow{onRow}}
	for _, gs := range []int{16, 48} {
		res, _ := ss.run(ss.problem(gs, 51), newMAGMA(), m3e.Options{}, 6)
		rep.Bound.PruneRateByGroupSize[fmt.Sprint(gs)] = res.Cache.BoundPruneRate()
	}
	return rep, ss.err
}

// searches runs the eval report's full searches and keeps the first
// error: once a call fails, the later ones do nothing.
type searches struct{ err error }

// problem is one Mix group of n jobs on S2 at 16 GB/s, the throughput
// objective.
func (ss *searches) problem(n int, seed int64) *m3e.Problem {
	if ss.err != nil {
		return nil
	}
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: n, GroupSize: n, Seed: seed})
	if err == nil {
		var prob *m3e.Problem
		if prob, err = m3e.NewProblem(w.Groups[0], platform.S2().WithBW(16), m3e.Throughput); err == nil {
			return prob
		}
	}
	ss.err = err
	return nil
}

// unpruned hides EliteSelector, so m3e.Run evaluates every genome: the
// reference the pruned default is checked against.
type unpruned struct{ m3e.Optimizer }

// run runs one search at the paper's budget (o.Budget unset) and
// summarises its per-generation phase timings as a PhaseRow.
func (ss *searches) run(prob *m3e.Problem, opt m3e.Optimizer, o m3e.Options, seed int64) (m3e.Result, PhaseRow) {
	if ss.err != nil {
		return m3e.Result{}, PhaseRow{}
	}
	res, err := m3e.Run(prob, opt, o, seed)
	if err != nil {
		ss.err = err
		return res, PhaseRow{}
	}
	ph := res.Phases
	gens := float64(ph.Generations)
	total := ph.AskNs + ph.BoundNs + ph.SimulateNs + ph.TellNs
	row := PhaseRow{
		Generations:      ph.Generations,
		NsPerGen:         float64(total) / gens,
		AskNsPerGen:      float64(ph.AskNs) / gens,
		BoundNsPerGen:    float64(ph.BoundNs) / gens,
		SimulateNsPerGen: float64(ph.SimulateNs) / gens,
		TellNsPerGen:     float64(ph.TellNs) / gens,
		TellShare:        float64(ph.TellNs) / float64(total),
		Reasks:           res.Cache.Hits,
	}
	return res, row
}

// procSuffix is the -N GOMAXPROCS suffix go test appends to benchmark
// names when N > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench turns `go test -bench -benchmem` output into measurements
// and the reported cpu. A "pkg:" header sets the package of the result
// lines after it; each result line ("BenchmarkName-N  iterations  value
// unit ...") becomes one row, named without the Benchmark prefix and
// the -N suffix. Other lines (goos, PASS, ok, logs) are skipped.
func parseBench(r io.Reader) (ms []Measurement, cpu string, err error) {
	var pkg string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		m := Measurement{
			Package:    pkg,
			Name:       procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""),
			Iterations: iters,
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bench line %q: %w", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = int64(v)
			case "allocs/op":
				m.AllocsPerOp = int64(v)
			}
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 && sc.Err() == nil {
		return nil, "", errors.New("go test -bench printed no result lines")
	}
	return ms, cpu, sc.Err()
}
