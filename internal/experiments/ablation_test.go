package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"l15cache/internal/kernel"
	"l15cache/internal/runner"
)

func ablCfg() MakespanConfig {
	cfg := DefaultMakespanConfig()
	cfg.DAGs = 30
	return cfg
}

func TestAblateZetaMonotone(t *testing.T) {
	res, err := AblateZeta(context.Background(), ablCfg(), []int{0, 4, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %v", res.Points)
	}
	// More ways never hurt the makespan (the ETM is monotone and Alg. 1
	// only adds coverage).
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Value > res.Points[i-1].Value+1e-9 {
			t.Errorf("ζ=%g worse than ζ=%g: %v",
				res.Points[i].Param, res.Points[i-1].Param, res.Points)
		}
	}
	// ζ=16 must clearly beat ζ=0 (the co-design's entire point).
	if res.Points[2].Value >= res.Points[0].Value*0.98 {
		t.Errorf("ζ=16 barely helps: %v", res.Points)
	}
}

func TestAblateWayBytes(t *testing.T) {
	res, err := AblateWayBytes(context.Background(), ablCfg(), []int64{1024, 2048, 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Value <= 0 || math.IsNaN(p.Value) {
			t.Errorf("bad value at κ=%g: %g", p.Param, p.Value)
		}
	}
	if _, err := AblateWayBytes(context.Background(), ablCfg(), []int64{3000}); err == nil {
		t.Error("non-dividing way size accepted")
	}
}

func TestAblatePriorities(t *testing.T) {
	res, err := AblatePriorities(context.Background(), ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Both components must contribute: the full algorithm beats the
	// no-ways variant clearly, and is no worse than ways-with-baseline-
	// priorities (the λ recomputation is a refinement, not a regression).
	if res.Full >= res.PrioOnly {
		t.Errorf("full (%.4f) should beat priorities-only (%.4f)", res.Full, res.PrioOnly)
	}
	if res.Full > res.WaysOnly*1.02 {
		t.Errorf("full (%.4f) clearly worse than ways-only (%.4f)", res.Full, res.WaysOnly)
	}
	out := res.Format()
	for _, want := range []string{"full Alg. 1", "ways only", "priorities only"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestAblateConfigDelay(t *testing.T) {
	res, err := AblateConfigDelay(context.Background(), 5, 1, runner.Options{}, kernel.Events, []float64{0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// φ is zero with a free SDU and grows with the delay.
	if res.Points[0].Value != 0 {
		t.Errorf("φ with zero delay = %g", res.Points[0].Value)
	}
	if res.Points[1].Value <= 0 {
		t.Errorf("φ with slow SDU = %g, want > 0", res.Points[1].Value)
	}
	if _, err := AblateConfigDelay(context.Background(), 0, 1, runner.Options{}, kernel.Events, []float64{0}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := AblateConfigDelay(context.Background(), 1, 1, runner.Options{}, kernel.Events, []float64{-1}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestETMDiminishingReturns(t *testing.T) {
	pts := ETMDiminishingReturns(10, 8192, 8) // needs 4 ways
	if len(pts) != 9 {
		t.Fatalf("points = %d", len(pts))
	}
	// Monotone non-increasing, flat after ⌈δ/κ⌉ = 4.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value > pts[i-1].Value+1e-12 {
			t.Errorf("cost increased at n=%d", i)
		}
	}
	if pts[4].Value != pts[8].Value {
		t.Error("extra ways beyond the demand changed the cost")
	}
	if math.Abs(pts[4].Value-3) > 1e-9 { // 10 × (1 − 0.7)
		t.Errorf("saturated cost = %g, want 3", pts[4].Value)
	}
}

func TestAblationFormat(t *testing.T) {
	res := &AblationResult{
		Name: "zeta", Metric: "x",
		Points: []AblationPoint{{Param: 1, Value: 2}},
	}
	out := res.Format()
	if !strings.Contains(out, "zeta") || !strings.Contains(out, "2.0000") {
		t.Errorf("format = %q", out)
	}
}

func TestDefaultsSane(t *testing.T) {
	if len(AblationZetaDefault()) == 0 || len(AblationWayBytesDefault()) == 0 ||
		len(AblationDelayDefault()) == 0 {
		t.Error("empty defaults")
	}
	for _, kb := range AblationWayBytesDefault() {
		if 32*1024%kb != 0 {
			t.Errorf("default κ=%d does not divide 32KB", kb)
		}
	}
}

func TestCSVExports(t *testing.T) {
	cfg := smallCfgCSV()
	s, err := SweepUtilization(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "U,avg_prop,") {
		t.Errorf("makespan CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if strings.Count(csv, "\n") != 2 {
		t.Errorf("makespan CSV rows:\n%s", csv)
	}

	se := SideEffectsCSV([]SideEffectsPoint{{Cores: 8, Utilization: 0.8, WayUtilization: 0.95, Phi: 0.001}})
	if !strings.Contains(se, "8,0.8,0.95,0.001") {
		t.Errorf("side effects CSV = %q", se)
	}

	acc := AcceptanceCSV([]AcceptancePoint{{Utilization: 1, PropAccepted: 0.9, BaseAccepted: 0.5, SimFeasible: 1}})
	if !strings.Contains(acc, "1,0.5,0.9,1") {
		t.Errorf("acceptance CSV = %q", acc)
	}
}

func smallCfgCSV() MakespanConfig {
	cfg := DefaultMakespanConfig()
	cfg.DAGs = 5
	cfg.Instances = 2
	return cfg
}
