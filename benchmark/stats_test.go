package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{0.05, 15}, {0.4, 20}, {0.5, 35}, {0.95, 50}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// definition of the quartiles README.md reports.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWinRatioCountsTiesForNeither(t *testing.T) {
	parent := []float64{1, 2, 3, 4}
	change := []float64{2, 2, 1, 5}
	if got := winRatio(parent, change, true); got != 0.5 {
		t.Errorf("higher-better win ratio = %v, want 0.5", got)
	}
	if got := winRatio(parent, change, false); got != 0.25 {
		t.Errorf("lower-better win ratio = %v, want 0.25", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 5}, {200, 300}}
	// Covered: [0,5) + [10,40) + [90,100) = 45.
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestCriticalPathOfAFanOut(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100},
		{Name: "fleet.router", Start: 5, End: 95},
		{Name: "fleet.forward", Where: "shard0", Start: 10, End: 60},
		{Name: "fleet.forward", Where: "shard1", Start: 12, End: 80},
		{Name: "serve.handler", Where: "shard0", Start: 15, End: 55},
		{Name: "serve.handler", Where: "shard1", Start: 20, End: 70},
	}
	b, ok := criticalPath(spans)
	if !ok {
		t.Fatal("no op span found")
	}
	// Router self time: 90 minus the forwards' union [10,80).
	want := breakdown{op: 100, hop: 20, handler: 50, transport: 10 + 18, straggler: 68 - 50, forwards: 2}
	if b != want {
		t.Errorf("criticalPath = %+v, want %+v", b, want)
	}

	single := []span{{Name: "op", Start: 0, End: 10}, {Name: "serve.handler", Start: 2, End: 9}}
	if b, _ := criticalPath(single); b != (breakdown{op: 10, handler: 7, transport: 3}) {
		t.Errorf("single-shard criticalPath = %+v", b)
	}
	if _, ok := criticalPath([]span{{Name: "analyzer.table", Calls: 1}}); ok {
		t.Error("a span set without an op span has no critical path")
	}
}
