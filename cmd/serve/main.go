// Command serve exposes the library as an HTTP service backed by one
// long-lived, shared magma.Solver: concurrent requests reuse analysis
// tables, evaluator pools and the cross-run schedule cache, and the
// JSON responses report the reuse (engine.cross_request_hit_rate).
//
// Usage:
//
//	serve                      # listen on :8080
//	serve -addr :9000 -maxproblems 128 -cachesize 131072
//	serve -jobtimeout 2m -maxjobs 512
//	serve -snapshot-dir /var/lib/magma -snapshot-interval 30s
//	serve -addr :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//	serve -pprof localhost:6060     # net/http/pprof side listener
//
// With -shards the process is a fleet *router* instead of a shard: it
// owns no Solver and forwards every /optimize to the shard that owns
// each group's TableIdentity under rendezvous hashing (multi-group
// requests fan out per group and merge bit-identically), aggregates
// /stats across the fleet, and retries a shedding or briefly
// unreachable shard before failing the request with a 502. Shard
// elements are "url" or "name=url"; names are the stable hash
// identities, so keep them fixed across restarts (see internal/fleet).
// All solver flags (-maxproblems, -snapshot-dir, ...) apply to shard
// processes and are rejected in router mode.
//
// With -snapshot-dir the server is crash-safe: it periodically writes
// the Solver's warm state (schedule-cache entries and warm-start seeds)
// to an atomically-replaced snapshot file, writes a final snapshot on
// graceful shutdown, and restores the newest snapshot on boot — so a
// restarted server answers a repeated request mix with cross-request
// cache hits from its first generation. A corrupt or version-mismatched
// snapshot is rejected whole and logged; the server boots cold instead
// of crashing.
//
// Endpoints:
//
//	POST /optimize   {"generate":{"task":"Mix","num_jobs":32,"group_size":16,"seed":1},
//	                  "platform":"S2","options":{"budget_per_group":400,"seed":1}}
//	                 or {"workload":{...jobgen document...},...}
//	                 synchronous; aborts with the client disconnect and
//	                 honors "timeout_ms" (capped by -jobtimeout)
//	POST /jobs       same body, asynchronous; returns {"id": ...}
//	GET  /jobs/{id}  status + live progress (+ result when finished;
//	                 HTTP 499 once cancelled)
//	DELETE /jobs/{id}       cancel; the job keeps its best-so-far result
//	GET  /jobs/{id}/events  SSE progress stream (one event per generation)
//	GET  /jobs       list retained jobs
//	GET  /stats      engine lifetime counters
//	GET  /healthz    liveness probe
package main

import (
	"context"
	"errors"
	"flag"
	"log"
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
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxProblems = flag.Int("maxproblems", 0, "cached problems bound (0 = default 64)")
		cacheSize   = flag.Int("cachesize", 0, "per-problem fitness store bound in entries (0 = default)")
		warmLimit   = flag.Int("warmlimit", 0, "shared warm-store schedules per task (0 = default 8)")
		jobTimeout  = flag.Duration("jobtimeout", 10*time.Minute, "per-search wall-clock cap for /optimize and /jobs; request timeout_ms can only shorten it (0 = no cap)")
		maxJobs     = flag.Int("maxjobs", 0, "retained finished jobs bound (0 = default 256)")
		maxRunning  = flag.Int("maxrunning", 0, "concurrently running async jobs bound; excess submissions get 429 (0 = default 2x GOMAXPROCS, min 4)")
		snapDir     = flag.String("snapshot-dir", "", "directory for durable warm-state snapshots; empty disables snapshotting")
		snapEvery   = flag.Duration("snapshot-interval", time.Minute, "period between background snapshots (with -snapshot-dir)")
		shardSpec   = flag.String("shards", "", "run as a fleet router over this comma-separated shard list (url or name=url); solver flags do not apply")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this side listener (e.g. localhost:6060); empty disables")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("serve: ")
	startPprof(*pprofAddr)

	if *shardSpec != "" {
		runRouter(*addr, *shardSpec)
		return
	}

	solver := magma.NewSolver(magma.SolverOptions{
		MaxProblems: *maxProblems,
		CacheSize:   *cacheSize,
		WarmLimit:   *warmLimit,
	})
	var snapPath string
	stopSnapshots := func() {}
	if *snapDir != "" {
		snapPath = filepath.Join(*snapDir, "solver.snap")
		restoreSnapshot(solver, snapPath)
		stopSnapshots = startSnapshots(solver, snapPath, *snapEvery)
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: logRequests(serve.NewWith(solver, serve.Config{
			JobTimeout: *jobTimeout,
			MaxJobs:    *maxJobs,
			MaxRunning: *maxRunning,
		}).Handler()),
		// Searches are CPU-bound and can run long; only bound the header
		// read so a stuck client cannot pin a connection pre-request.
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// A last snapshot after the listener drains, so warm state built
		// by the final requests survives the restart.
		stopSnapshots()
		if snapPath != "" {
			if err := solver.SnapshotFile(snapPath); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				log.Printf("final snapshot written to %s", snapPath)
			}
		}
	}()

	log.Printf("listening on %s (shared solver: one engine for all requests)", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// runRouter serves the fleet front end: no Solver in this process, just
// rendezvous routing, per-group fan-out and fleet-wide stats. The
// solver flags are shard-process configuration; accepting them here and
// silently ignoring them would hide a misconfigured deployment, so any
// that were set are fatal.
func runRouter(addr, shardSpec string) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr", "shards", "pprof":
		default:
			log.Fatalf("-%s configures a shard process; it does not apply with -shards (start shards as separate serve processes)", f.Name)
		}
	})
	shards, err := fleet.ParseShards(shardSpec)
	if err != nil {
		log.Fatal(err)
	}
	router, err := fleet.NewRouter(shards, fleet.Config{})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           logRequests(router.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("router shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	for _, sh := range shards {
		log.Printf("shard %s -> %s", sh.Name, sh.URL)
	}
	log.Printf("routing on %s (%d shards, rendezvous-hashed by TableIdentity)", addr, len(shards))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// startPprof exposes net/http/pprof on a side listener so a hot-path
// hunt against a live server (shard or router) starts from a CPU or
// heap profile instead of a guess. The profile mux stays off the
// service address: profiling must never be reachable from service
// traffic, and a wedged service handler cannot take the profiler with
// it.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("pprof listening on http://%s/debug/pprof/", addr)
		// DefaultServeMux carries the net/http/pprof registrations.
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("pprof listener: %v", err)
		}
	}()
}

// restoreSnapshot loads the previous run's warm state. Every failure is
// survivable: a missing file is the ordinary first boot, and a corrupt
// or version-mismatched snapshot is rejected whole by the persist layer
// — log it and boot cold, never crash on bad bytes from disk.
func restoreSnapshot(solver *magma.Solver, path string) {
	switch err := solver.RestoreFile(path); {
	case err == nil:
		st := solver.Stats()
		log.Printf("restored %d problems (%d cache entries) from %s",
			st.ProblemsRestored, st.EntriesRestored, path)
	case os.IsNotExist(err):
		log.Printf("no snapshot at %s: cold start", path)
	default:
		log.Printf("snapshot %s rejected (%v): cold start", path, err)
	}
}

// startSnapshots writes a snapshot every interval on a background
// goroutine; the returned stop waits for any in-flight write, so the
// caller can safely take the final shutdown snapshot after it.
func startSnapshots(solver *magma.Solver, path string, interval time.Duration) (stop func()) {
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
					log.Printf("snapshot: %v", err)
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
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		log.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, time.Since(start))
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
