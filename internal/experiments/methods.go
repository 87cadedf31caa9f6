package experiments

import (
	"fmt"

	"magma/internal/heuristics"
	"magma/internal/m3e"
	"magma/internal/opt/cmaes"
	"magma/internal/opt/de"
	"magma/internal/opt/ga"
	optmagma "magma/internal/opt/magma"
	"magma/internal/opt/pso"
	"magma/internal/opt/rl"
	"magma/internal/opt/tbpsa"
)

// Method is one mapper from Table IV: either a manual heuristic (no
// sampling budget) or a search algorithm.
type Method struct {
	Name      string
	Heuristic heuristics.Mapper
	NewOpt    func() m3e.Optimizer
}

// Methods returns all Table IV mappers in the paper's figure order:
// Herald-like, AI-MT-like, PSO, CMA, DE, TBPSA, stdGA, RL A2C, RL PPO2,
// MAGMA.
func Methods(c Config) []Method {
	return []Method{
		{Name: "Herald-like", Heuristic: heuristics.HeraldLike{}},
		{Name: "AI-MT-like", Heuristic: heuristics.AIMTLike{}},
		{Name: "PSO", NewOpt: func() m3e.Optimizer { return pso.New(pso.Config{}) }},
		{Name: "CMA", NewOpt: func() m3e.Optimizer { return cmaes.New(cmaes.Config{}) }},
		{Name: "DE", NewOpt: func() m3e.Optimizer { return de.New(de.Config{}) }},
		{Name: "TBPSA", NewOpt: func() m3e.Optimizer { return tbpsa.New(tbpsa.Config{}) }},
		{Name: "stdGA", NewOpt: func() m3e.Optimizer { return ga.New(ga.Config{}) }},
		{Name: "RL A2C", NewOpt: func() m3e.Optimizer { return rl.NewA2C(rl.A2CConfig{Hidden: c.RLHidden}) }},
		{Name: "RL PPO2", NewOpt: func() m3e.Optimizer { return rl.NewPPO(rl.PPOConfig{Hidden: c.RLHidden}) }},
		{Name: "MAGMA", NewOpt: func() m3e.Optimizer { return optmagma.New(optmagma.Config{}) }},
	}
}

// heraldLike returns the Herald-like baseline (helper for experiments
// that compare a subset of mappers).
func heraldLike() heuristics.Mapper { return heuristics.HeraldLike{} }

// MethodNames lists the Table IV mapper names in figure order.
func MethodNames(c Config) []string {
	ms := Methods(c)
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// RunMethod evaluates one method on a problem and returns its best
// fitness (throughput) and, for search methods, the best-so-far curve.
// Heuristics ignore the runner options (they consume no budget).
func RunMethod(prob *m3e.Problem, m Method, opts m3e.Options, seed int64) (float64, m3e.Curve, error) {
	if m.Heuristic != nil {
		mapping, err := m.Heuristic.Map(prob.Table)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		fit, _, err := prob.EvaluateMapping(mapping)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		return fit, nil, nil
	}
	res, err := runSearch(prob, m.NewOpt(), opts, seed)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", m.Name, err)
	}
	return res.BestFitness, res.Curve, nil
}
