package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
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

// job is one asynchronous search: a runSpec executing on its own
// goroutine under a cancellable context.
type job struct {
	id      string
	created time.Time
	cancel  context.CancelFunc

	mu         sync.Mutex
	status     string
	reason     string // "cancel" or "timeout" for cancelled jobs
	partial    bool
	progress   JobProgress
	result     *OptimizeResponse
	errMsg     string
	cancelAt   time.Time
	finishedAt time.Time
	subs       map[chan JobView]struct{}
}

// view snapshots the job for the wire. Caller must not hold j.mu.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *job) viewLocked() JobView {
	v := JobView{
		ID:       j.id,
		Status:   j.status,
		Reason:   j.reason,
		Partial:  j.partial,
		Progress: j.progress,
		Result:   j.result,
		Error:    j.errMsg,
	}
	end := j.finishedAt
	if end.IsZero() {
		end = time.Now()
	}
	v.ElapsedMS = float64(end.Sub(j.created).Microseconds()) / 1e3
	if !j.cancelAt.IsZero() && !j.finishedAt.IsZero() {
		lat := j.finishedAt.Sub(j.cancelAt)
		if lat < 0 {
			lat = 0
		}
		v.CancelLatencyMS = float64(lat.Microseconds()) / 1e3
	}
	return v
}

// publishLocked fans the current view out to SSE subscribers without
// blocking: a slow consumer just misses intermediate frames (it always
// gets the final one — finish closes the channels after a last send).
func (j *job) publishLocked() {
	v := j.viewLocked()
	for ch := range j.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// subscribe registers an SSE listener; the returned cancel must be
// called exactly once. A finished job still delivers one final view.
func (j *job) subscribe() (<-chan JobView, func()) {
	ch := make(chan JobView, 16)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan JobView]struct{})
	}
	j.subs[ch] = struct{}{}
	ch <- j.viewLocked() // initial snapshot; buffer is empty, never blocks
	if j.status != JobRunning {
		delete(j.subs, ch)
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// finish records the terminal state and closes every subscriber after a
// final guaranteed delivery.
func (j *job) finish(status, reason string, partial bool, result *OptimizeResponse, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.reason = reason
	j.partial = partial
	j.result = result
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	v := j.viewLocked()
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for ch := range subs {
		// Guaranteed final frame: drain one stale entry if the buffer is
		// full, then send and close.
		select {
		case ch <- v:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- v
		}
		close(ch)
	}
}

// isRunning reports whether the job has not reached a terminal state.
func (j *job) isRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == JobRunning
}

// requestCancel marks the job cancelled-by-client and tears down its
// context. Idempotent; reports whether the job was still running.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	running := j.status == JobRunning
	if running && j.cancelAt.IsZero() {
		j.cancelAt = time.Now()
		j.reason = "cancel"
	}
	j.mu.Unlock()
	if running {
		j.cancel()
	}
	return running
}

// jobSet is the server's bounded job table.
type jobSet struct {
	mu    sync.Mutex
	max   int
	jobs  map[string]*job
	order []string // creation order, for finished-job eviction
}

func newJobSet(max int) *jobSet {
	return &jobSet{max: max, jobs: make(map[string]*job)}
}

func (s *jobSet) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// add inserts a new job, evicting the oldest finished jobs past the
// bound. Running jobs are never evicted, so a burst of long searches can
// transiently exceed max by the number of running jobs.
func (s *jobSet) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	excess := len(s.jobs) - s.max
	if excess <= 0 {
		return
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
}

// running counts jobs that have not reached a terminal state.
func (s *jobSet) running() int {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if j.isRunning() {
			n++
		}
	}
	return n
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
	if running := s.jobs.running(); running >= s.cfg.MaxRunning {
		// Each running job is a CPU-bound search goroutine; past the cap
		// we shed load instead of letting submissions starve the server.
		writeOverloaded(w, running, s.cfg.MaxRunning,
			fmt.Sprintf("%d jobs already running (limit %d): retry later or raise -maxrunning", running, s.cfg.MaxRunning))
		return
	}
	// The job's context deliberately does NOT descend from r.Context():
	// the submit request ends immediately while the search runs on. Only
	// DELETE /jobs/{id} or the timeout cancel it.
	var ctx context.Context
	var cancel context.CancelFunc
	var deadline time.Time
	if spec.timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), spec.timeout)
		deadline, _ = ctx.Deadline()
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &job{
		id:      newJobID(),
		created: time.Now(),
		cancel:  cancel,
		status:  JobRunning,
		progress: JobProgress{
			Groups: len(spec.wl.Groups),
		},
	}
	s.jobs.add(j)
	go s.runJob(ctx, cancel, j, spec, deadline)
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"status": JobRunning,
		"groups": len(spec.wl.Groups),
	})
}

// runJob executes one async search and records its terminal state.
// deadline is the job's timeout instant (zero when untimed), used to
// measure how long the abort took when the deadline fires.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, spec *runSpec, deadline time.Time) {
	defer cancel()
	start := time.Now()
	opts := spec.opts
	opts.Progress = func(group int, p magma.Progress) {
		j.mu.Lock()
		j.progress.Group = group
		j.progress.GroupsDone = group // groups before the current one are done
		j.progress.Generation = p.Generation
		j.progress.Samples = p.Samples
		j.progress.Asked = p.Asked
		j.progress.Budget = p.Budget
		j.progress.BestFitness = p.BestFitness
		j.progress.Cache = cacheJSON(p.Cache)
		j.publishLocked()
		j.mu.Unlock()
	}
	res, err := s.solver.OptimizeStreamCtx(ctx, spec.wl, spec.pf, opts)
	aborted := ctx.Err() != nil
	reason := ""
	if aborted {
		reason = "timeout"
		j.mu.Lock()
		if !j.cancelAt.IsZero() {
			reason = "cancel"
		} else if !deadline.IsZero() {
			// The deadline fired: the cancel moment is the deadline
			// itself, so cancel_latency_ms measures the real unwind time
			// (deadline → finish), not the ~0 gap between these lines.
			j.cancelAt = deadline
		} else {
			j.cancelAt = time.Now()
		}
		j.mu.Unlock()
	}
	switch {
	case err == nil:
		resp, rerr := s.response(spec, res, start)
		if rerr != nil {
			j.finish(JobFailed, "", false, nil, rerr.Error())
			return
		}
		j.mu.Lock()
		j.progress.GroupsDone = len(res.Schedules)
		if res.Partial && len(res.Schedules) > 0 && res.Schedules[len(res.Schedules)-1].Partial {
			j.progress.GroupsDone--
		}
		j.mu.Unlock()
		if res.Partial {
			j.finish(JobCancelled, reason, true, &resp, "")
		} else {
			j.finish(JobDone, "", false, &resp, "")
		}
	case aborted:
		// Cancelled before anything was scheduled: no result to keep.
		j.finish(JobCancelled, reason, true, nil, err.Error())
	default:
		j.finish(JobFailed, "", false, nil, err.Error())
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

// handleJobEvents streams the job's progress as Server-Sent Events: one
// `progress` event per search generation (slow consumers skip frames)
// and a final `done` event with the terminal view, then closes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	ch, unsub := j.subscribe()
	defer unsub()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	writeEvent := func(name string, v JobView) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v, open := <-ch:
			if !open {
				return
			}
			name := "progress"
			if v.Status != JobRunning {
				name = "done"
			}
			if !writeEvent(name, v) {
				return
			}
			if name == "done" {
				return
			}
		}
	}
}
