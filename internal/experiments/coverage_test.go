package experiments

import (
	"context"
	"strings"
	"testing"

	"l15cache/internal/rtsim"
	"l15cache/internal/workload"
)

func TestRunCaseStudySmall(t *testing.T) {
	cfg := DefaultCaseStudyConfig(8)
	cfg.Trials = 4
	res, err := RunCaseStudy(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	for _, kind := range CaseStudySystems() {
		v := pt.Success[kind.String()]
		if v < 0 || v > 1 {
			t.Errorf("%v success = %g", kind, v)
		}
	}
	out := res.Format()
	for _, want := range []string{"Fig.8", "Prop", "CMP|Shared-L1", "50%"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "utilization,prop,") {
		t.Errorf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

func TestRunCaseStudyErrors(t *testing.T) {
	cfg := DefaultCaseStudyConfig(8)
	cfg.Trials = 0
	if _, err := RunCaseStudy(context.Background(), cfg, []float64{0.5}); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = DefaultCaseStudyConfig(0)
	if _, err := RunCaseStudy(context.Background(), cfg, []float64{0.5}); err == nil {
		t.Error("zero cores accepted")
	}
	// Tasks defaults to Cores when unset.
	cfg = DefaultCaseStudyConfig(8)
	cfg.Tasks = 0
	cfg.Trials = 1
	if _, err := RunCaseStudy(context.Background(), cfg, []float64{0.5}); err != nil {
		t.Errorf("default task count failed: %v", err)
	}
}

func TestRunSideEffectsSmall(t *testing.T) {
	cfg := SideEffectsConfig{
		Trials: 2,
		Seed:   1,
		RT:     rtsim.DefaultConfig(),
		Set:    workload.DefaultTaskSetParams(),
	}
	pts, err := RunSideEffects(context.Background(), cfg, []int{8}, []float64{0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label() != "8c|80%" {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].WayUtilization <= 0 || pts[0].WayUtilization > 1 {
		t.Errorf("utilisation = %g", pts[0].WayUtilization)
	}
	out := FormatSideEffects(pts)
	if !strings.Contains(out, "8c|80%") || !strings.Contains(out, "φ") {
		t.Errorf("format: %q", out)
	}
	cfg.Trials = 0
	if _, err := RunSideEffects(context.Background(), cfg, []int{8}, []float64{0.8}); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestWorstGainMatchesDefinition(t *testing.T) {
	s := &MakespanSweep{
		Points: []MakespanPoint{
			{Worst: map[string]float64{SysProp: 0.8, SysCMPL1: 1.0}},
			{Worst: map[string]float64{SysProp: 0.6, SysCMPL1: 0.8}},
		},
	}
	// (0.2/1.0 + 0.2/0.8)/2 = (0.2 + 0.25)/2 = 0.225.
	if got := s.WorstGain(SysCMPL1); got < 0.224 || got > 0.226 {
		t.Errorf("WorstGain = %g", got)
	}
	g := &MakespanSweep{
		Points: []MakespanPoint{
			{Avg: map[string]float64{SysProp: 0.9, SysCMPL1: 1.0}},
		},
	}
	if got := g.Gain(SysCMPL1); got < 0.099 || got > 0.101 {
		t.Errorf("Gain = %g", got)
	}
}
