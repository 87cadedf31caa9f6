package magma

import (
	"fmt"
	"strings"
)

// Validate checks the Options for the mistakes that used to surface as
// silent defaults or panics deep in the stack — a negative budget, an
// unknown objective or mapper — and
// returns one error naming every problem at once. Zero values stay
// valid: they mean "use the default". Every Solver entry point calls it
// up front, so callers normally never need to.
func (o Options) Validate() error {
	return o.validateFor([]string{o.Mapper})
}

// validateFor validates the shared fields once and each mapper name of
// a Compare-style sweep.
func (o Options) validateFor(mappers []string) error {
	problems := mapperProblems(mappers)
	if o.Budget < 0 {
		problems = append(problems, fmt.Sprintf("negative Budget %d (0 means the default %d)", o.Budget, DefaultBudget))
	}
	problems = append(problems, objectiveProblems(o.Objective)...)
	return joinProblems("Options", problems)
}

// Validate checks the StreamOptions like Options.Validate, returning
// one error naming every problem.
func (o StreamOptions) Validate() error {
	problems := mapperProblems([]string{o.Mapper})
	if o.BudgetPerGroup < 0 {
		problems = append(problems, fmt.Sprintf("negative BudgetPerGroup %d (0 means the default split)", o.BudgetPerGroup))
	}
	problems = append(problems, objectiveProblems(o.Objective)...)
	if o.SharedWarm && !o.WarmStart {
		problems = append(problems, "SharedWarm set without WarmStart: the shared store would never be read or written")
	}
	return joinProblems("StreamOptions", problems)
}

// mapperProblems resolves each name against the registry.
func mapperProblems(mappers []string) []string {
	var problems []string
	for _, name := range mappers {
		if !knownMapper(name) {
			problems = append(problems, fmt.Sprintf("unknown Mapper %q (registered: %s)",
				name, strings.Join(MapperNames(), ", ")))
		}
	}
	return problems
}

// objectiveProblems checks the objective Options and StreamOptions
// share.
func objectiveProblems(obj Objective) []string {
	if obj > EDP {
		return []string{fmt.Sprintf("unknown Objective %d (want Throughput, Latency, Energy or EDP)", obj)}
	}
	return nil
}

// DefaultBudget is the sampling budget used when Options.Budget is zero
// (§VI-B).
const DefaultBudget = m3eDefaultBudget

func joinProblems(kind string, problems []string) error {
	switch len(problems) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("magma: invalid %s: %s", kind, problems[0])
	}
	return fmt.Errorf("magma: invalid %s:\n  - %s", kind, strings.Join(problems, "\n  - "))
}
