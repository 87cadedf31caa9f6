// Package models is the DNN model zoo used by the benchmark (§VI-A1).
//
// The paper collects vision, language, and recommendation models from
// PyTorch; here each architecture is transcribed to the layer-table form
// consumed by the cost model. Three conventions follow the paper:
//
//   - Embedding lookups stay on the host CPU (§II-A) and are omitted.
//   - MLPs and attention blocks are modeled as FC/GEMM layers. Sequence
//     GEMMs of a transformer ([L×C]·[C×K]) are expressed as 1×1
//     convolutions over a length-L "image" (Y=L, X=1), which prices the
//     full L·K·C multiply-accumulate volume of the projection.
//   - Attention score / context products are approximated by two sequence
//     GEMMs with K=L (scores) and C=L (context), matching their MAC count.
package models

import (
	"fmt"
	"slices"
	"sort"

	"magma/internal/layer"
)

// Task identifies the three application classes of §II-A plus the
// combined Mix workload of §VI-A2.
type Task uint8

const (
	Vision Task = iota
	Language
	Recommendation
	Mix
)

// String returns the task name as used in the paper's figures.
func (t Task) String() string {
	switch t {
	case Vision:
		return "Vision"
	case Language:
		return "Lang"
	case Recommendation:
		return "Recom"
	case Mix:
		return "Mix"
	default:
		return fmt.Sprintf("Task(%d)", uint8(t))
	}
}

// ParseTask converts a task name (case-sensitive, as printed by String)
// into a Task.
func ParseTask(s string) (Task, error) {
	switch s {
	case "Vision", "vision":
		return Vision, nil
	case "Lang", "lang", "Language", "language":
		return Language, nil
	case "Recom", "recom", "Recommendation", "recommendation":
		return Recommendation, nil
	case "Mix", "mix":
		return Mix, nil
	}
	return 0, fmt.Errorf("models: unknown task %q", s)
}

// Tasks lists the four benchmark task types in paper order.
func Tasks() []Task { return []Task{Vision, Language, Recommendation, Mix} }

var registry = map[string]layer.Model{}
var taskOf = map[string]Task{}

func register(t Task, m layer.Model) layer.Model {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("models: registering invalid model: %v", err))
	}
	if _, dup := registry[m.Name]; dup {
		panic(fmt.Sprintf("models: duplicate model %q", m.Name))
	}
	registry[m.Name] = m
	taskOf[m.Name] = t
	return m
}

// ByName returns a registered model.
func ByName(name string) (layer.Model, error) {
	m, ok := registry[name]
	if !ok {
		return layer.Model{}, fmt.Errorf("models: unknown model %q", name)
	}
	return m, nil
}

// TaskOf returns the task class a model belongs to.
func TaskOf(name string) (Task, error) {
	t, ok := taskOf[name]
	if !ok {
		return 0, fmt.Errorf("models: unknown model %q", name)
	}
	return t, nil
}

// Names returns all registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pools holds each task's name-sorted pool, built once at init from the
// registry that the package-level model variables fill.
var pools [Mix + 1][]layer.Model

func init() {
	for _, t := range Tasks() {
		for n, m := range registry {
			if t == Mix || taskOf[n] == t {
				pools[t] = append(pools[t], m)
			}
		}
		sort.Slice(pools[t], func(i, j int) bool { return pools[t][i].Name < pools[t][j].Name })
	}
}

// Pool returns the models of one task class, sorted by name; for Mix,
// the union of all three pools, and for an unknown task, nil. The slice
// is the caller's: changing it does not change the next call's result.
func Pool(t Task) []layer.Model {
	if int(t) >= len(pools) {
		return nil
	}
	return slices.Clone(pools[t])
}
