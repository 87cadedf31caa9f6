package m3e

import (
	"context"
	"testing"

	"magma/internal/models"
	"magma/internal/platform"
)

func TestRunObserverSeesEveryGeneration(t *testing.T) {
	prob := testProblem(t, models.Mix, 16, platform.S2(), Throughput)
	var snaps []Progress
	res, err := Run(prob, &stubOpt{batch: 8}, Options{Budget: 40, Observer: func(p Progress) {
		snaps = append(snaps, p)
	}}, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(snaps) != 5 { // 40 budget / 8 per batch
		t.Fatalf("observer saw %d generations, want 5", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Samples != res.Samples || last.BestFitness != res.BestFitness || last.Budget != 40 {
		t.Errorf("final snapshot %+v inconsistent with result (samples %d, best %v)",
			last, res.Samples, res.BestFitness)
	}
	for i, p := range snaps {
		if p.Generation != i+1 {
			t.Errorf("snapshot %d has generation %d", i, p.Generation)
		}
	}
}

func TestRunContextAbortMidSearch(t *testing.T) {
	prob := testProblem(t, models.Mix, 16, platform.S2(), Throughput)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(prob, &stubOpt{batch: 8}, Options{Budget: 800, Context: ctx, Observer: func(p Progress) {
		if p.Generation == 3 {
			cancel()
		}
	}}, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Aborted {
		t.Fatal("cancelled run not marked Aborted")
	}
	if res.Samples != 24 {
		t.Fatalf("aborted after %d samples, want 24 (3 generations of 8)", res.Samples)
	}
	if res.Curve.Len() != res.Samples {
		t.Fatalf("curve %d entries, samples %d", res.Curve.Len(), res.Samples)
	}
	if res.Best.NumJobs() == 0 {
		t.Fatal("aborted run lost its best genome")
	}
}
