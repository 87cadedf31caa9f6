package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"magma"
	"magma/internal/fleet"
	"magma/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
		os.Exit(2)
	}
}

// run parses args, serves a shard (or, with -shards, a router) until
// ctx is cancelled, and then stops gracefully: in-flight requests get up
// to 30 s to finish, and a shard with -snapshot-dir writes a final
// snapshot. It logs to stderr. A flag error, a flag that does not apply
// to the mode, or a listener that cannot start is returned.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxProblems = fs.Int("maxproblems", 0, "cached problems bound (0 = default 64)")
		warmLimit   = fs.Int("warmlimit", 0, "shared warm-store schedules per task (0 = default 8)")
		jobTimeout  = fs.Duration("jobtimeout", 10*time.Minute, "per-search wall-clock cap for /optimize and /jobs; request timeout_ms can only shorten it (0 = no cap)")
		maxJobs     = fs.Int("maxjobs", 0, "retained finished jobs bound (0 = default 256)")
		maxRunning  = fs.Int("maxrunning", 0, "concurrently running async jobs bound; excess submissions get 429 (0 = default 2x GOMAXPROCS, min 4)")
		snapDir     = fs.String("snapshot-dir", "", "directory for durable warm-state snapshots; empty disables snapshotting")
		snapEvery   = fs.Duration("snapshot-interval", time.Minute, "period between background snapshots (with -snapshot-dir)")
		shardSpec   = fs.String("shards", "", "run as a fleet router over this comma-separated shard list (url or name=url); solver flags do not apply")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this side listener (e.g. localhost:6060); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(stderr, "serve: ", log.LstdFlags|log.Lmicroseconds)
	if *shardSpec != "" {
		return runRouter(ctx, logger, fs, *addr, *shardSpec, *pprofAddr)
	}
	startPprof(logger, *pprofAddr)

	solver := magma.NewSolver(magma.SolverOptions{
		MaxProblems: *maxProblems,
		WarmLimit:   *warmLimit,
	})
	var snapPath string
	stopSnapshots := func() {}
	if *snapDir != "" {
		snapPath = filepath.Join(*snapDir, "solver.snap")
		restoreSnapshot(logger, solver, snapPath)
		stopSnapshots = startSnapshots(logger, solver, snapPath, *snapEvery)
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: logRequests(logger, serve.NewWith(solver, serve.Config{
			JobTimeout: *jobTimeout,
			MaxJobs:    *maxJobs,
			MaxRunning: *maxRunning,
		}).Handler()),
		// Searches are CPU-bound and can run long; only bound the header
		// read so a stuck client cannot pin a connection pre-request.
		ReadHeaderTimeout: 10 * time.Second,
	}
	err := serveUntil(ctx, logger, srv, "listening", "shared solver: one engine for all requests")
	// A last snapshot after the listener drains, so warm state built by
	// the final requests survives the restart.
	stopSnapshots()
	if snapPath != "" && err == nil {
		if err := solver.SnapshotFile(snapPath); err != nil {
			logger.Printf("final snapshot: %v", err)
		} else {
			logger.Printf("final snapshot written to %s", snapPath)
		}
	}
	return err
}

// runRouter serves the fleet front end: no Solver in this process, just
// rendezvous routing, per-group fan-out and fleet-wide stats. The solver
// flags are shard-process configuration; accepting them here and
// silently ignoring them would hide a misconfigured deployment, so the
// first one set in fs is returned as an error before anything starts.
func runRouter(ctx context.Context, logger *log.Logger, fs *flag.FlagSet, addr, shardSpec, pprofAddr string) error {
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr", "shards", "pprof":
		default:
			if misplaced == nil {
				misplaced = fmt.Errorf("-%s configures a shard process; it does not apply with -shards (start shards as separate serve processes)", f.Name)
			}
		}
	})
	if misplaced != nil {
		return misplaced
	}
	startPprof(logger, pprofAddr)
	shards, err := fleet.ParseShards(shardSpec)
	if err != nil {
		return err
	}
	router, err := fleet.NewRouter(shards, fleet.Config{})
	if err != nil {
		return err
	}
	for _, sh := range shards {
		logger.Printf("shard %s -> %s", sh.Name, sh.URL)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           logRequests(logger, router.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntil(ctx, logger, srv, "routing", fmt.Sprintf("%d shards, rendezvous-hashed by TableIdentity", len(shards)))
}

// serveUntil serves srv on its address until ctx is cancelled, then
// shuts it down, giving in-flight requests up to 30 s to finish. The
// line "<verb> on <bound address> (<detail>)" is logged once the
// listener is open.
func serveUntil(ctx context.Context, logger *log.Logger, srv *http.Server, verb, detail string) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	logger.Printf("%s on %s (%s)", verb, ln.Addr(), detail)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Print("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// startPprof exposes net/http/pprof on a side listener so a hot-path
// hunt against a live server (shard or router) starts from a CPU or
// heap profile instead of a guess. The profile mux stays off the
// service address: profiling must never be reachable from service
// traffic, and a wedged service handler cannot take the profiler with
// it.
func startPprof(logger *log.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		logger.Printf("pprof listening on http://%s/debug/pprof/", addr)
		// DefaultServeMux carries the net/http/pprof registrations.
		if err := http.ListenAndServe(addr, nil); err != nil {
			logger.Printf("pprof listener: %v", err)
		}
	}()
}

// restoreSnapshot loads the previous run's warm state. Every failure is
// survivable: a missing file is the ordinary first boot, and a corrupt
// or version-mismatched snapshot is rejected whole by the persist layer
// — log it and boot cold, never crash on bad bytes from disk.
func restoreSnapshot(logger *log.Logger, solver *magma.Solver, path string) {
	switch err := solver.RestoreFile(path); {
	case err == nil:
		st := solver.Stats()
		logger.Printf("restored %d problems (%d memo entries) from %s",
			st.ProblemsRestored, st.EntriesRestored, path)
	case os.IsNotExist(err):
		logger.Printf("no snapshot at %s: cold start", path)
	default:
		logger.Printf("snapshot %s rejected (%v): cold start", path, err)
	}
}

// startSnapshots writes a snapshot every interval on a background
// goroutine; the returned stop waits for any in-flight write, so the
// caller can safely take the final shutdown snapshot after it.
func startSnapshots(logger *log.Logger, solver *magma.Solver, path string, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if err := solver.SnapshotFile(path); err != nil {
					// Transient disk trouble must not kill the server; the
					// next tick retries and the previous snapshot is intact
					// (writes are atomic temp+rename).
					logger.Printf("snapshot: %v", err)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// logRequests logs one line per request: method, path, status, elapsed.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, time.Since(start))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so the SSE progress stream
// (/jobs/{id}/events) keeps working through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
