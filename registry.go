package magma

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"magma/internal/heuristics"
	"magma/internal/m3e"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/de"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/pso"
	"magma/internal/opt/random"
	"magma/internal/opt/rl"
	"magma/internal/opt/tbpsa"
	"magma/internal/rng"
)

// Mapper is the pluggable search-algorithm interface (§IV-B), re-exported
// so downstream packages can implement and Register their own algorithms
// without touching the facade. The runner repeatedly Asks a batch of
// candidate genomes, evaluates them (each consumes sampling budget) and
// Tells the mapper their fitness; see internal/m3e.Optimizer for the
// full contract. A Mapper instance serves one search — Register a
// factory, not an instance.
type Mapper = m3e.Optimizer

// RNG is the run's root random stream handed to Mapper.Init (RNG layout
// v2): a splittable, counter-based SplitMix64 generator. Sequential
// mappers draw from it directly (Intn/Float64/NormFloat64); mappers
// that breed per slot derive one independent sub-stream per work item
// with At(generation, slot), so each item's draws depend on its label
// alone. See internal/rng.
type RNG = rng.Stream

// MapperFactory builds a fresh Mapper instance for one search.
type MapperFactory func() Mapper

// registry holds the name → factory mapping behind Options.Mapper.
// Built-ins self-register below in Table IV order; Register appends
// downstream algorithms. The heuristic baselines (Herald-like,
// AI-MT-like) produce mappings directly rather than via Ask/Tell, so
// they live outside the factory map but their names stay reserved.
var registry = struct {
	sync.RWMutex
	factories map[string]MapperFactory
	builtin   []string // Table IV listing order
	custom    []string // registration order of downstream mappers
}{factories: make(map[string]MapperFactory)}

// heuristicNames are the manual baselines of Table IV — valid
// Options.Mapper values that bypass the search runner entirely.
var heuristicNames = []string{"Herald-like", "AI-MT-like"}

func registerBuiltin(name string, f MapperFactory) {
	registry.factories[name] = f
	registry.builtin = append(registry.builtin, name)
}

func init() {
	// Table IV search mappers, in the paper's listing order.
	registerBuiltin("PSO", func() Mapper { return pso.New(pso.Config{}) })
	registerBuiltin("CMA", func() Mapper { return cmaes.New(cmaes.Config{}) })
	registerBuiltin("DE", func() Mapper { return de.New(de.Config{}) })
	registerBuiltin("TBPSA", func() Mapper { return tbpsa.New(tbpsa.Config{}) })
	registerBuiltin("stdGA", func() Mapper { return ga.New(ga.Config{}) })
	registerBuiltin("RL A2C", func() Mapper { return rl.NewA2C(rl.A2CConfig{}) })
	registerBuiltin("RL PPO2", func() Mapper { return rl.NewPPO(rl.PPOConfig{}) })
	registerBuiltin("Random", func() Mapper { return random.New(0) })
	registerBuiltin("MAGMA", func() Mapper { return optmagma.New(optmagma.Config{}) })
}

// Register adds a mapper under the given name, making it selectable by
// Options.Mapper from Optimize, Compare, OptimizeStream and any server
// built on them — no facade edits required. The factory is called once
// per search and must return a fresh instance. Names are case-sensitive;
// registering an empty name, a nil factory, or a name already taken
// (built-in, heuristic or earlier Register) is an error. Safe for
// concurrent use, though registration normally happens at init time.
func Register(name string, factory MapperFactory) error {
	if name == "" {
		return fmt.Errorf("magma: Register: empty mapper name")
	}
	if factory == nil {
		return fmt.Errorf("magma: Register: nil factory for mapper %q", name)
	}
	for _, h := range heuristicNames {
		if name == h {
			return fmt.Errorf("magma: Register: %q is a reserved heuristic baseline", name)
		}
	}
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.factories[name]; ok {
		return fmt.Errorf("magma: Register: mapper %q already registered", name)
	}
	registry.factories[name] = factory
	registry.custom = append(registry.custom, name)
	return nil
}

// MapperNames lists every selectable Options.Mapper value: the Table IV
// built-ins in the paper's order (heuristics first), then any Registered
// mappers sorted by name.
func MapperNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(heuristicNames)+len(registry.builtin)+len(registry.custom))
	out = append(out, heuristicNames...)
	out = append(out, registry.builtin...)
	custom := append([]string(nil), registry.custom...)
	sort.Strings(custom)
	return append(out, custom...)
}

// newOptimizer resolves a mapper name against the registry. Empty means
// MAGMA (the paper's default).
func newOptimizer(name string) (m3e.Optimizer, error) {
	name = mapperName(name)
	registry.RLock()
	f, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("magma: unknown mapper %q (registered: %s)",
			name, strings.Join(MapperNames(), ", "))
	}
	return f(), nil
}

// mapperName resolves the empty Options.Mapper to MAGMA, the paper's
// default.
func mapperName(name string) string {
	if name == "" {
		return "MAGMA"
	}
	return name
}

// heuristicFor resolves a manual-baseline name, or nil when the name is
// a search mapper.
func heuristicFor(name string) heuristics.Mapper {
	switch name {
	case "Herald-like":
		return heuristics.HeraldLike{}
	case "AI-MT-like":
		return heuristics.AIMTLike{}
	}
	return nil
}

// knownMapper reports whether name resolves to a heuristic or a
// registered search mapper (empty = default MAGMA).
func knownMapper(name string) bool {
	if name == "" || heuristicFor(name) != nil {
		return true
	}
	registry.RLock()
	_, ok := registry.factories[name]
	registry.RUnlock()
	return ok
}
