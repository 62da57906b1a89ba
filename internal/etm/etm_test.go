package etm

import (
	"math"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
)

func TestWaysNeeded(t *testing.T) {
	cases := []struct {
		data, way int64
		want      int
	}{
		{0, 2048, 0},
		{-5, 2048, 0},
		{1, 2048, 1},
		{2048, 2048, 1},
		{2049, 2048, 2},
		{16 * 1024, 2048, 8},
		{16*1024 + 1, 2048, 9},
	}
	for _, c := range cases {
		if got := WaysNeeded(c.data, c.way); got != c.want {
			t.Errorf("WaysNeeded(%d,%d) = %d, want %d", c.data, c.way, got, c.want)
		}
	}
}

func TestWaysNeededPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive way capacity did not panic")
		}
	}()
	WaysNeeded(100, 0)
}

func TestCost(t *testing.T) {
	const mu, alpha = 10.0, 0.5
	const data, way = int64(8192), int64(2048) // needs 4 ways

	if got := Cost(mu, alpha, data, way, 0); got != mu {
		t.Errorf("n=0: %g, want full cost %g", got, mu)
	}
	// Half the ways: ET = 10 × (1 − 0.5 × 2/4) = 7.5.
	if got := Cost(mu, alpha, data, way, 2); got != 7.5 {
		t.Errorf("n=2: %g, want 7.5", got)
	}
	// All ways: maximum speed-up α: ET = 10 × 0.5 = 5.
	if got := Cost(mu, alpha, data, way, 4); got != 5 {
		t.Errorf("n=4: %g, want 5", got)
	}
	// Extra ways give no further benefit.
	if got := Cost(mu, alpha, data, way, 16); got != 5 {
		t.Errorf("n=16: %g, want 5 (clamped)", got)
	}
	// No data to transmit: raw cost regardless of ways.
	if got := Cost(mu, alpha, 0, way, 4); got != mu {
		t.Errorf("δ=0: %g, want %g", got, mu)
	}
	// Zero cost stays zero.
	if got := Cost(0, alpha, data, way, 4); got != 0 {
		t.Errorf("μ=0: %g, want 0", got)
	}
}

// Property: ET is monotonically non-increasing in n and bounded by
// [μ(1−α), μ].
func TestQuickCostMonotoneBounded(t *testing.T) {
	f := func(rawMu float64, rawAlpha float64, rawData int64, n uint8) bool {
		mu := math.Abs(rawMu)
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			return true
		}
		alpha := math.Mod(math.Abs(rawAlpha), 0.999)
		data := rawData % (64 * 1024)
		if data < 0 {
			data = -data
		}
		data++ // ensure some data
		prev := Cost(mu, alpha, data, DefaultWayBytes, 0)
		for k := 1; k <= int(n%40)+1; k++ {
			c := Cost(mu, alpha, data, DefaultWayBytes, k)
			if c > prev+1e-9 {
				return false // must not increase with more ways
			}
			if c < mu*(1-alpha)-1e-9 || c > mu+1e-9 {
				return false // out of bounds
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelWeight(t *testing.T) {
	task := dag.Fig1Example()
	m := NewModel(task, DefaultWayBytes)

	// With no allocation the model degenerates to the raw costs.
	rawCP := task.CriticalPathLength(dag.RawCost)
	if got := task.CriticalPathLength(m.Weight()); got != rawCP {
		t.Errorf("critical path with empty model = %g, want %g", got, rawCP)
	}

	// Give v1 (4096 B ⇒ 2 ways needed) its full 2 ways: its out-edges
	// (α=0.5) halve.
	m.Ways[0] = 2
	for _, to := range task.Succ(0) {
		e, _ := task.Edge(0, to)
		if got := m.EdgeCost(e); got != e.Cost*0.5 {
			t.Errorf("edge v1->%d cost = %g, want %g", to, got, e.Cost*0.5)
		}
	}
	// λ must shrink accordingly.
	if got := task.CriticalPathLength(m.Weight()); got >= rawCP {
		t.Errorf("critical path did not shrink: %g >= %g", got, rawCP)
	}
}
