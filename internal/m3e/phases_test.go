package m3e_test

import (
	"fmt"
	"testing"
	"time"

	"magma/internal/m3e"
	optmagma "magma/internal/opt/magma"
)

// TestPhasesTileTheRun pins PhaseTimings' contract: the runner reads
// the clock at phase boundaries only, so the phases of a run, pruned or
// not, cached or not, sum to at most the wall time around Run, and only
// the phases the run has take time.
func TestPhasesTileTheRun(t *testing.T) {
	prob := parallelProblem(t)
	for _, pruned := range []bool{false, true} {
		for _, cache := range []bool{false, true} {
			label := fmt.Sprintf("pruned=%v cache=%v", pruned, cache)
			var opt m3e.Optimizer = optmagma.New(optmagma.Config{})
			if !pruned {
				opt = unpruned{opt}
			}
			start := time.Now()
			res, err := m3e.Run(prob, opt, m3e.Options{Budget: 600, Store: storeIf(cache)}, 5)
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				t.Fatal(err)
			}
			ph := res.Phases
			for _, ns := range []int64{ph.AskNs, ph.FingerprintNs, ph.BoundNs, ph.SimulateNs, ph.TellNs} {
				if ns < 0 {
					t.Fatalf("%s: negative phase in %+v", label, ph)
				}
			}
			sum := ph.AskNs + ph.FingerprintNs + ph.BoundNs + ph.SimulateNs + ph.TellNs
			if sum <= 0 || sum > wall {
				t.Errorf("%s: phases sum to %d ns, want in (0, %d] (the run's wall time): %+v", label, sum, wall, ph)
			}
			if (ph.BoundNs > 0) != pruned || (ph.FingerprintNs > 0) != cache {
				t.Errorf("%s: phases %+v, want bound time only when pruned and fingerprint time only when cached", label, ph)
			}
			if ph.Generations == 0 {
				t.Errorf("%s: no generation counted", label)
			}
		}
	}
}
