package sim

import (
	"math/rand"
	"testing"
)

// fuzzMapping turns arbitrary bytes into a mapping: a byte ≥ 0xF0
// closes the current queue, any other byte b appends job b%16−2 to it,
// so inputs reach valid, negative and out-of-range job IDs, duplicates,
// missing jobs and wrong queue counts.
func fuzzMapping(data []byte) Mapping {
	m := Mapping{Queues: make([][]int, 1)}
	for _, b := range data {
		if b >= 0xF0 {
			m.Queues = append(m.Queues, nil)
			continue
		}
		q := len(m.Queues) - 1
		m.Queues[q] = append(m.Queues[q], int(b%16)-2)
	}
	return m
}

// FuzzRun feeds Run arbitrary mappings over one small fixed table
// (6 jobs × 3 cores holding BW-hungry, zero and sub-threshold
// requirements, at a system bandwidth the hungry jobs can saturate).
// Run must never panic: it returns the validation error for a
// malformed mapping, and for a valid one a schedule of every job that
// is no faster than the no-stall bound, up to the retirement
// tolerance. Explore beyond the seed corpus with
//
//	go test -run=NONE -fuzz=FuzzRun -fuzztime=10s ./internal/sim/
func FuzzRun(f *testing.F) {
	const nJobs, nAccels = 6, 3
	tab := randomTable(rand.New(rand.NewSource(9)), nJobs, nAccels)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMapping(data)
		res, err := Run(tab, m, Options{})
		verr := m.Validate(nJobs, nAccels)
		if (err == nil) != (verr == nil) {
			t.Fatalf("Run error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		if len(res.JobRuns) != nJobs {
			t.Fatalf("%d job runs, want %d", len(res.JobRuns), nJobs)
		}
		if lb := NoStallLowerBound(tab, m); res.TotalCycles < lb-kernelTol(lb) {
			t.Fatalf("makespan %g beats the no-stall bound %g", res.TotalCycles, lb)
		}
	})
}
