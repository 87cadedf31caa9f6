package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"magma"
)

// DefaultMaxJobs bounds retained finished jobs when Config.MaxJobs is
// zero. Running jobs are never evicted; the bound only trims history.
const DefaultMaxJobs = 256

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the code a cancelled job reports, so load balancers and the
// CI smoke can distinguish an aborted search from a completed one.
const StatusClientClosedRequest = 499

// Job states on the wire.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobProgress is the live view of a running job, updated once per
// search generation by the facade's Progress observer.
type JobProgress struct {
	Groups      int       `json:"groups"`       // total groups in the workload
	GroupsDone  int       `json:"groups_done"`  // fully scheduled groups
	Group       int       `json:"group"`        // group currently searching
	Generation  int       `json:"generation"`   // generation within that group
	Samples     int       `json:"samples"`      // budget consumed in that group
	Asked       int       `json:"asked"`        // genomes processed in that group (== samples)
	Budget      int       `json:"budget"`       // that group's budget
	BestFitness float64   `json:"best_fitness"` // best fitness in that group
	Cache       CacheJSON `json:"cache"`        // counters of that group so far
}

// JobView is the GET /jobs/{id} (and SSE event) payload.
type JobView struct {
	ID       string      `json:"id"`
	Status   string      `json:"status"` // running | done | failed | cancelled
	Reason   string      `json:"reason,omitempty"`
	Partial  bool        `json:"partial,omitempty"`
	Progress JobProgress `json:"progress"`
	// Result is set once the job finishes — including cancelled jobs,
	// whose result holds the best-so-far schedules.
	Result    *OptimizeResponse `json:"result,omitempty"`
	Error     string            `json:"error,omitempty"`
	ElapsedMS float64           `json:"elapsed_ms"`
	// CancelLatencyMS measures DELETE-to-stop: the time between the
	// cancel request and the search actually unwinding. Bounded by one
	// generation's evaluation cost — the contract the CI smoke asserts.
	CancelLatencyMS float64 `json:"cancel_latency_ms,omitempty"`
}

// errCancelled is the cause a DELETE cancels a job's context with: a
// job reads "cancel" exactly when its context's cause is errCancelled,
// and "timeout" when the deadline fired first.
var errCancelled = errors.New("job cancelled by DELETE")

// job is one asynchronous search: a runSpec executing on its own
// goroutine under a cancellable context.
type job struct {
	id      string
	created time.Time
	cancel  context.CancelCauseFunc

	mu         sync.Mutex
	status     string
	reason     string // "cancel" or "timeout" for cancelled jobs
	progress   JobProgress
	result     *OptimizeResponse
	errMsg     string
	cancelAt   time.Time // the DELETE, or the deadline on a timeout
	finishedAt time.Time
	// changed is closed at the next update: each SSE stream waits on it,
	// then reads the latest view, so a slow consumer skips frames and the
	// terminal view, which persists, is never missed. It is made only
	// when watched, so an unwatched job's generations allocate nothing.
	changed chan struct{}
}

// watch snapshots the job for the wire, with the channel its next
// update closes. Caller must not hold j.mu.
func (j *job) watch() (JobView, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		Status:   j.status,
		Reason:   j.reason,
		Partial:  j.status == JobCancelled,
		Progress: j.progress,
		Result:   j.result,
		Error:    j.errMsg,
	}
	end := j.finishedAt
	if end.IsZero() {
		end = time.Now()
	}
	v.ElapsedMS = float64(end.Sub(j.created).Microseconds()) / 1e3
	if j.status == JobCancelled {
		v.CancelLatencyMS = float64(max(j.finishedAt.Sub(j.cancelAt), 0).Microseconds()) / 1e3
	}
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return v, j.changed
}

func (j *job) view() JobView {
	v, _ := j.watch()
	return v
}

// notifyLocked wakes every watcher of the job. Caller holds j.mu.
func (j *job) notifyLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// finish records the terminal state and wakes every watcher.
func (j *job) finish(status, reason string, result *OptimizeResponse, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status, j.reason, j.result, j.errMsg = status, reason, result, errMsg
	j.finishedAt = time.Now()
	j.notifyLocked()
}

// isRunning reports whether the job has not reached a terminal state.
func (j *job) isRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == JobRunning
}

// requestCancel cancels the job's context with errCancelled. Idempotent;
// reports whether the job was still running.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	running := j.status == JobRunning
	if running && j.cancelAt.IsZero() {
		j.cancelAt = time.Now()
	}
	j.mu.Unlock()
	if running {
		j.cancel(errCancelled)
	}
	return running
}

// jobSet is the server's bounded job table. Admission and the running
// count share its one lock.
type jobSet struct {
	mu         sync.Mutex
	max        int // retained jobs
	maxRunning int
	running    int // jobs whose search has not returned
	jobs       map[string]*job
	order      []string // creation order, for finished-job eviction
}

func newJobSet(max, maxRunning int) *jobSet {
	return &jobSet{max: max, maxRunning: maxRunning, jobs: make(map[string]*job)}
}

func (s *jobSet) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// add admits j when fewer than maxRunning searches run, evicting the
// oldest finished jobs past the bound; at the cap it adds nothing and
// returns false with the running count. Running jobs are never evicted,
// so a burst of long searches can transiently exceed max by the number
// of running jobs.
func (s *jobSet) add(j *job) (running int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running >= s.maxRunning {
		return s.running, false
	}
	s.running++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	excess := len(s.jobs) - s.max
	if excess <= 0 {
		return s.running, true
	}
	kept := s.order[:0]
	for _, id := range s.order {
		old := s.jobs[id]
		if excess > 0 && old != nil && !old.isRunning() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return s.running, true
}

// release frees the running slot of a job whose search has returned.
func (s *jobSet) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
}

// list snapshots every retained job, newest first.
func (s *jobSet) list() []JobView {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to time.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// handleJobs serves the /jobs collection: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := s.parseRequest(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The job's context deliberately does NOT descend from r.Context():
	// the submit request ends immediately while the search runs on. Only
	// DELETE /jobs/{id} or the timeout cancel it.
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		id:      newJobID(),
		created: time.Now(),
		cancel:  cancel,
		status:  JobRunning,
		progress: JobProgress{
			Groups: len(spec.wl.Groups),
		},
	}
	if running, ok := s.jobs.add(j); !ok {
		cancel(nil)
		// Each running job is a CPU-bound search goroutine; past the cap
		// we shed load instead of letting submissions starve the server.
		writeOverloaded(w, running, s.cfg.MaxRunning,
			fmt.Sprintf("%d jobs already running (limit %d): retry later or raise -maxrunning", running, s.cfg.MaxRunning))
		return
	}
	go s.runJob(ctx, j, spec)
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"status": JobRunning,
		"groups": len(spec.wl.Groups),
	})
}

// runJob executes one async search under the job's timeout and records
// its terminal state. The running slot is freed as soon as the search
// returns, before that state, so a client that has seen the job finish
// can submit the next one.
func (s *Server) runJob(ctx context.Context, j *job, spec *runSpec) {
	defer j.cancel(nil)
	if spec.timeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, spec.timeout)
		defer stop()
	}
	start := time.Now()
	opts := spec.opts
	opts.Progress = func(group int, p magma.Progress) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.progress.Group = group
		j.progress.GroupsDone = group // groups before the current one are done
		j.progress.Generation = p.Generation
		j.progress.Samples = p.Samples
		j.progress.Asked = p.Asked
		j.progress.Budget = p.Budget
		j.progress.BestFitness = p.BestFitness
		j.progress.Cache = cacheJSON(p.Cache)
		j.notifyLocked()
	}
	res, err := s.solver.OptimizeStreamCtx(ctx, spec.wl, spec.pf, opts)
	s.jobs.release()
	reason := ""
	if ctx.Err() != nil {
		reason = "timeout"
		if errors.Is(context.Cause(ctx), errCancelled) {
			reason = "cancel"
		} else {
			// The deadline is the cancel moment, so cancel_latency_ms
			// measures the unwind (deadline → finish), also when a DELETE
			// landed after the deadline fired.
			j.mu.Lock()
			j.cancelAt, _ = ctx.Deadline()
			j.mu.Unlock()
		}
	}
	switch {
	case err == nil:
		resp, rerr := s.response(spec, res, start)
		if rerr != nil {
			j.finish(JobFailed, "", nil, rerr.Error())
			return
		}
		j.mu.Lock()
		j.progress.GroupsDone = len(res.Schedules)
		if res.Partial && len(res.Schedules) > 0 && res.Schedules[len(res.Schedules)-1].Partial {
			j.progress.GroupsDone--
		}
		j.mu.Unlock()
		if res.Partial {
			j.finish(JobCancelled, reason, &resp, "")
		} else {
			j.finish(JobDone, "", &resp, "")
		}
	case reason != "":
		// Cancelled before anything was scheduled: no result to keep.
		j.finish(JobCancelled, reason, nil, err.Error())
	default:
		j.finish(JobFailed, "", nil, err.Error())
	}
}

// handleJob serves one job: GET status, DELETE cancel, GET …/events SSE.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j := s.jobs.get(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, j)
	case sub != "":
		writeErr(w, http.StatusNotFound, "unknown job endpoint %q", sub)
	case r.Method == http.MethodGet:
		v := j.view()
		code := http.StatusOK
		if v.Status == JobCancelled {
			code = StatusClientClosedRequest
		}
		WriteJSON(w, code, v)
	case r.Method == http.MethodDelete:
		if j.requestCancel() {
			WriteJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": "cancelling"})
			return
		}
		WriteJSON(w, http.StatusOK, j.view())
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// handleJobEvents streams the job's progress as Server-Sent Events: a
// `progress` event per update it keeps up with (a slow consumer skips
// frames) and a final `done` event with the terminal view, then closes.
// A stream opened after the job finished gets the `done` event alone.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		v, changed := j.watch()
		name := "progress"
		if v.Status != JobRunning {
			name = "done"
		}
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return
		}
		fl.Flush()
		if name == "done" {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
