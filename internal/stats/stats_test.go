package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanMaxMinSum(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); got != 2.8 {
		t.Errorf("Mean = %g", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %g", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty slices should yield 0")
	}
}

// Property: min <= Mean <= Max.
func TestQuickStats(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitudes so the sum cannot overflow.
			xs = append(xs, math.Mod(math.Abs(x), 1e12))
		}
		if len(xs) == 0 {
			return true
		}
		return slices.Min(xs) <= Mean(xs)+1e-9 && Mean(xs) <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
