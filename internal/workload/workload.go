// Package workload builds multi-tenant batched-job workloads (§III,
// §VI-A2). A job is a mini-batch of one layer — a batch of activations
// plus the layer's weights — belonging to one of the independent models
// running on the system. A light-weight host-side control program chops
// the queued jobs into dependency-free groups; the mapper schedules one
// group at a time.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"magma/internal/layer"
	"magma/internal/models"
	"magma/internal/strictjson"
)

// Job is one schedulable unit: a mini-batch of a single DNN layer.
type Job struct {
	ID    int         // index within its group
	Model string      // owning model, e.g. "ResNet50"
	Task  models.Task // task class of the owning model
	Layer layer.Layer // layer dimensions
	Batch int         // mini-batch size
}

// FLOPs returns the total floating-point work of the job.
func (j Job) FLOPs() int64 { return int64(j.Batch) * j.Layer.FLOPs() }

// Group is a dependency-free set of jobs scheduled together.
type Group struct {
	Index int
	Jobs  []Job
}

// TotalFLOPs sums the work across the group.
func (g Group) TotalFLOPs() int64 {
	var sum int64
	for _, j := range g.Jobs {
		sum += j.FLOPs()
	}
	return sum
}

// Validate checks job numbering and layer sanity.
func (g Group) Validate() error {
	if len(g.Jobs) == 0 {
		return fmt.Errorf("workload: group %d is empty", g.Index)
	}
	for i, j := range g.Jobs {
		if j.ID != i {
			return fmt.Errorf("workload: group %d job %d has ID %d", g.Index, i, j.ID)
		}
		if j.Batch <= 0 {
			return fmt.Errorf("workload: group %d job %d has batch %d", g.Index, i, j.Batch)
		}
		if err := j.Layer.Validate(); err != nil {
			return fmt.Errorf("workload: group %d job %d: %w", g.Index, i, err)
		}
	}
	return nil
}

// Workload is a named sequence of groups drawn from one task class.
type Workload struct {
	Name   string
	Task   models.Task
	Groups []Group
}

// Validate checks every group.
func (w Workload) Validate() error {
	if len(w.Groups) == 0 {
		return fmt.Errorf("workload %q: no groups", w.Name)
	}
	for i, g := range w.Groups {
		if g.Index != i {
			return fmt.Errorf("workload %q: group %d has index %d", w.Name, i, g.Index)
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return nil
}

// NumJobs counts jobs across all groups.
func (w Workload) NumJobs() int {
	n := 0
	for _, g := range w.Groups {
		n += len(g.Jobs)
	}
	return n
}

// Config parameterizes the benchmark generator.
type Config struct {
	Task      models.Task
	NumJobs   int   // total jobs to draw (rounded up to whole models)
	GroupSize int   // jobs per dependency-free group (default 100, §VI-A2)
	Seed      int64 // deterministic generator seed
}

// DefaultGroupSize is the benchmark's group size (§VI-A2).
const DefaultGroupSize = 100

// batchFor draws the mini-batch size for a job of the given task.
// Batched-job inference runs hundreds-to-thousands of activations per
// model, broken into mini-batches (§III). Vision mini-batches are
// moderate; language jobs carry their sequence dimension inside the
// layer, and recommendation queries arrive nearly per-query — which is
// what makes their tiny-MLP jobs so bandwidth-hungry in Fig. 7 (weights
// barely amortize across the batch).
func batchFor(t models.Task, r *rand.Rand) int {
	switch t {
	case models.Vision:
		return 2 << r.Intn(3) // 2, 4, 8
	case models.Language, models.Recommendation:
		return 1 << r.Intn(3) // 1, 2, 4
	default:
		return 1
	}
}

// Generate builds a workload: it repeatedly picks a model from the
// task's pool, enqueues all of that model's layers as jobs (a batched
// inference stream), shuffles the pool of queued jobs (multi-tenancy
// makes them dependency-free, §III), and chops them into groups.
//
// The queue holds small references rather than jobs: the shuffle's draws
// do not depend on what it swaps, so shuffling references yields the
// same permutation, and only the jobs the trim keeps are ever built.
func Generate(cfg Config) (Workload, error) {
	if cfg.NumJobs <= 0 {
		return Workload{}, fmt.Errorf("workload: NumJobs = %d", cfg.NumJobs)
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = DefaultGroupSize
	}
	pool := models.Pool(cfg.Task)
	if len(pool) == 0 {
		return Workload{}, fmt.Errorf("workload: empty model pool for task %v", cfg.Task)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Multi-tenancy means the queued pool always interleaves several
	// concurrent model streams (§III): draw at least minStreams model
	// instances even when few jobs are requested, then sample the group
	// from the shuffled pool.
	const minStreams = 4
	maxLayers := 0
	for _, m := range pool {
		maxLayers = max(maxLayers, len(m.Layers))
	}
	// The draw stops once both conditions hold, so its last model starts
	// below one of these lengths; the queue never outgrows its capacity.
	refs := make([]jobRef, 0, max(cfg.NumJobs-1, (minStreams-1)*maxLayers)+maxLayers)
	streams := 0
	for len(refs) < cfg.NumJobs || streams < minStreams {
		mi := r.Intn(len(pool))
		task, err := models.TaskOf(pool[mi].Name)
		if err != nil {
			return Workload{}, err
		}
		batch := batchFor(task, r)
		for li := range pool[mi].Layers {
			refs = append(refs, jobRef{model: int32(mi), layer: int32(li), batch: int32(batch), task: task})
		}
		streams++
	}
	r.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	if len(refs) > cfg.NumJobs && cfg.NumJobs >= cfg.GroupSize {
		// Trim the shuffled pool to whole groups' worth of jobs, keeping
		// the requested total.
		refs = refs[:cfg.NumJobs]
	}

	w := Workload{
		Name: fmt.Sprintf("%s-n%d-g%d-s%d", cfg.Task, cfg.NumJobs, cfg.GroupSize, cfg.Seed),
		Task: cfg.Task,
	}
	size, n := cfg.GroupSize, len(refs)/cfg.GroupSize
	if n == 0 { // fewer jobs than one group: keep what we have
		size, n = len(refs), 1
	}
	jobs := make([]Job, size*n)
	for i, ref := range refs[:len(jobs)] {
		m := &pool[ref.model]
		jobs[i] = Job{ID: i % size, Model: m.Name, Task: ref.task, Layer: m.Layers[ref.layer], Batch: int(ref.batch)}
	}
	w.Groups = make([]Group, n)
	for g := range w.Groups {
		// A full slice expression, so an append to one group's jobs
		// never writes into the next group's.
		w.Groups[g] = Group{Index: g, Jobs: jobs[g*size : (g+1)*size : (g+1)*size]}
	}
	return w, nil
}

// jobRef is one queued job before it is built: a layer of a pool model
// and the batch its stream drew.
type jobRef struct {
	model, layer, batch int32
	task                models.Task
}

// jobJSON is the interchange form mirroring the paper's "description of
// jobs" table (Fig. 1): job id, model, type, shape, batch.
type jobJSON struct {
	ID    int    `json:"id"`
	Model string `json:"model"`
	Task  string `json:"task"`
	Kind  string `json:"kind"`
	Name  string `json:"layer"`
	Shape [7]int `json:"shape"` // K,C,Y,X,R,S,stride
	Batch int    `json:"batch"`
}

type groupJSON struct {
	Index int       `json:"index"`
	Jobs  []jobJSON `json:"jobs"`
}

type workloadJSON struct {
	Name   string      `json:"name"`
	Task   string      `json:"task"`
	Groups []groupJSON `json:"groups"`
}

// WriteJSON serializes the workload as the job-description format: one
// compact JSON value and a newline.
func (w Workload) WriteJSON(out io.Writer) error {
	doc := workloadJSON{Name: w.Name, Task: w.Task.String()}
	for _, g := range w.Groups {
		gj := groupJSON{Index: g.Index}
		for _, j := range g.Jobs {
			gj.Jobs = append(gj.Jobs, jobJSON{
				ID: j.ID, Model: j.Model, Task: j.Task.String(),
				Kind: j.Layer.Kind.String(), Name: j.Layer.Name,
				Shape: [7]int{j.Layer.K, j.Layer.C, j.Layer.Y, j.Layer.X, j.Layer.R, j.Layer.S, j.Layer.Stride},
				Batch: j.Batch,
			})
		}
		doc.Groups = append(doc.Groups, gj)
	}
	return json.NewEncoder(out).Encode(doc)
}

// ReadJSON parses a workload previously written by WriteJSON. It reads
// in to its end and decodes the bytes with DecodeJSON.
func ReadJSON(in io.Reader) (Workload, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: reading JSON: %w", err)
	}
	return DecodeJSON(data)
}

// DecodeJSON parses the first JSON value of data as a workload. A
// document spelled as WriteJSON writes it is read in one pass
// (scanDocument); any other spelling, and every error, comes from
// encoding/json, which ignores bytes after the first value.
func DecodeJSON(data []byte) (Workload, error) {
	if w, ok := scanDocument(data); ok {
		return w, nil
	}
	return decodeReflect(data)
}

// scanDocument reads data as one document that only whitespace
// follows, in WriteJSON's spelling.
func scanDocument(data []byte) (Workload, bool) {
	s := strictjson.New(data)
	w, ok := ScanJSON(s)
	return w, ok && s.End()
}

// decodeReflect is DecodeJSON's encoding/json path.
func decodeReflect(data []byte) (Workload, error) {
	var doc workloadJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return Workload{}, fmt.Errorf("workload: decoding JSON: %w", err)
	}
	task, err := models.ParseTask(doc.Task)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: doc.Name, Task: task}
	for _, gj := range doc.Groups {
		g := Group{Index: gj.Index}
		for _, jj := range gj.Jobs {
			jt, err := models.ParseTask(jj.Task)
			if err != nil {
				return Workload{}, err
			}
			var kind layer.Kind
			switch jj.Kind {
			case "CONV":
				kind = layer.Conv2D
			case "DWCONV":
				kind = layer.DepthwiseConv
			case "FC":
				kind = layer.FC
			default:
				return Workload{}, fmt.Errorf("workload: unknown layer kind %q", jj.Kind)
			}
			g.Jobs = append(g.Jobs, Job{
				ID: jj.ID, Model: jj.Model, Task: jt,
				Layer: layer.Layer{
					Name: jj.Name, Kind: kind,
					K: jj.Shape[0], C: jj.Shape[1], Y: jj.Shape[2], X: jj.Shape[3],
					R: jj.Shape[4], S: jj.Shape[5], Stride: jj.Shape[6],
				},
				Batch: jj.Batch,
			})
		}
		w.Groups = append(w.Groups, g)
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// The key orders of the job-description format, as the struct tags of
// workloadJSON, groupJSON and jobJSON give them.
var (
	workloadKeys = []string{"name", "task", "groups"}
	groupKeys    = []string{"index", "jobs"}
	jobKeys      = []string{"id", "model", "task", "kind", "layer", "shape", "batch"}
)

// ScanJSON reads a workload object at s's position in the spelling
// WriteJSON gives it (see package strictjson), every key present. It
// declines, reporting false, at the first byte outside that spelling
// and on any document decodeReflect would refuse: a task or layer kind
// WriteJSON never writes, a shape of other than seven dimensions, or a
// workload that fails Validate. What it accepts decodes to the value
// decodeReflect gives, sharing no memory with the input.
func ScanJSON(s *strictjson.Scanner) (Workload, bool) {
	var w Workload
	ok := s.Record(workloadKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			w.Name, ok = s.String()
		case 1:
			w.Task, ok = scanName(s, models.Tasks()...)
		case 2:
			ok = s.Array(func() bool {
				g, ok := scanGroup(s)
				w.Groups = append(w.Groups, g)
				return ok
			})
		}
		return ok
	})
	return w, ok && w.Validate() == nil
}

func scanGroup(s *strictjson.Scanner) (Group, bool) {
	var g Group
	ok := s.Record(groupKeys, func(i int) bool {
		if i == 0 {
			var ok bool
			g.Index, ok = s.Int()
			return ok
		}
		return s.Array(func() bool {
			j, ok := scanJob(s)
			g.Jobs = append(g.Jobs, j)
			return ok
		})
	})
	return g, ok
}

func scanJob(s *strictjson.Scanner) (Job, bool) {
	var j Job
	ok := s.Record(jobKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			j.ID, ok = s.Int()
		case 1:
			j.Model, ok = s.String()
		case 2:
			j.Task, ok = scanName(s, models.Tasks()...)
		case 3:
			j.Layer.Kind, ok = scanName(s, layer.Conv2D, layer.DepthwiseConv, layer.FC)
		case 4:
			j.Layer.Name, ok = s.String()
		case 5:
			dims := [...]*int{&j.Layer.K, &j.Layer.C, &j.Layer.Y, &j.Layer.X, &j.Layer.R, &j.Layer.S, &j.Layer.Stride}
			n := 0
			ok = s.Array(func() bool {
				if n == len(dims) {
					return false
				}
				var ok bool
				*dims[n], ok = s.Int()
				n++
				return ok
			}) && n == len(dims)
		case 6:
			j.Batch, ok = s.Int()
		}
		return ok
	})
	return j, ok
}

// scanName reads a string and returns the value of values whose String
// method spells it.
func scanName[T fmt.Stringer](s *strictjson.Scanner, values ...T) (T, bool) {
	name, ok := s.Text()
	for _, v := range values {
		if ok && string(name) == v.String() {
			return v, true
		}
	}
	var zero T
	return zero, false
}
