package m3e

import (
	"math"
	"reflect"
	"testing"
)

// TestCurveRuns pins the run rule: a sample extends the last run only
// when its bits equal the run's value, so 0 and -0 are two runs and a
// NaN run grows.
func TestCurveRuns(t *testing.T) {
	samples := []float64{1, 1, 2, 0, math.Copysign(0, -1), math.NaN(), math.NaN(), 2}
	var c Curve
	for _, v := range samples {
		c = c.add(v)
	}
	if len(c) != 6 || c[0].N != 2 || c[4].N != 2 || c[5].N != 1 {
		t.Fatalf("runs %+v, want 6 with the two 1s and the two NaNs joined", c)
	}
	if n := c.Len(); n != len(samples) {
		t.Errorf("Len = %d, want %d", n, len(samples))
	}
	for i := -1; i <= len(samples); i++ {
		want := samples[min(max(i, 0), len(samples)-1)]
		if got := c.At(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestCurveAddAllocs: recording a sample allocates only when the runs
// slice grows.
func TestCurveAddAllocs(t *testing.T) {
	c := make(Curve, 0, 4)
	v := 0.0
	if n := testing.AllocsPerRun(100, func() {
		v++
		c = c.add(v).add(v)[:0]
	}); n != 0 {
		t.Errorf("add allocated %v times with room left", n)
	}
	if !reflect.DeepEqual(Curve{}.add(3).add(3), Curve{{V: 3, N: 2}}) {
		t.Error("two equal samples are not one run")
	}
}
