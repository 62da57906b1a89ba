package experiments

import (
	"context"
	"reflect"
	"testing"

	"l15cache/internal/kernel"
	"l15cache/internal/metrics"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/workload"
)

// The sweep-level kernel oracle: every public sweep entry point, run at
// reduced sizes under the ticked kernel (which steps every cycle and
// dispatch round) and under the events kernel (which skips idle time and
// replays steady states), must print the same tables and CSV and move
// the default metrics registry's counters by the same amounts. The
// commands always run the events kernel; this test is what holds it to
// the ticked reference.

// kernelRun runs one entry point under the given kernel and returns its
// formatted and CSV output.
type kernelRun func(ctx context.Context, k kernel.Mode) (string, error)

func TestKernelEquivalenceSweeps(t *testing.T) {
	run := runner.Options{Workers: 2}
	mk := func(k kernel.Mode) MakespanConfig {
		cfg := DefaultMakespanConfig()
		cfg.DAGs = 10
		cfg.Run = run
		cfg.Kernel = k
		return cfg
	}
	sweep := func(f func(context.Context, MakespanConfig, []float64) (*MakespanSweep, error), values ...float64) kernelRun {
		return func(ctx context.Context, k kernel.Mode) (string, error) {
			s, err := f(ctx, mk(k), values)
			if err != nil {
				return "", err
			}
			return s.FormatFig7() + s.FormatTable2() + s.CSV(), nil
		}
	}
	caseStudy := func(partitioned bool) kernelRun {
		return func(ctx context.Context, k kernel.Mode) (string, error) {
			cfg := DefaultCaseStudyConfig(8)
			cfg.Trials = 6
			cfg.Run = run
			cfg.RT.Partitioned = partitioned
			cfg.RT.Kernel = k
			res, err := RunCaseStudy(ctx, cfg, []float64{0.4, 0.6, 0.9})
			if err != nil {
				return "", err
			}
			return res.Format() + res.CSV(), nil
		}
	}
	ablation := func(f func(context.Context, MakespanConfig) (*AblationResult, error)) kernelRun {
		return func(ctx context.Context, k kernel.Mode) (string, error) {
			res, err := f(ctx, mk(k))
			if err != nil {
				return "", err
			}
			return res.Format() + res.CSV(), nil
		}
	}

	cases := []struct {
		name string
		run  kernelRun
	}{
		{"SweepUtilization", sweep(SweepUtilization, 0.4, 1.0)},
		{"SweepWidth", sweep(SweepWidth, 9, 21)},
		{"SweepCPR", sweep(SweepCPR, 0.1, 0.5)},
		{"RunCaseStudy/global", caseStudy(false)},
		{"RunCaseStudy/partitioned", caseStudy(true)},
		{"RunSideEffects", func(ctx context.Context, k kernel.Mode) (string, error) {
			rt := rtsim.DefaultConfig()
			rt.Kernel = k
			pts, err := RunSideEffects(ctx, SideEffectsConfig{
				Trials: 3,
				Seed:   1,
				RT:     rt,
				Set:    workload.DefaultTaskSetParams(),
				Run:    run,
			}, []int{8, 16}, []float64{0.8, 1.0})
			if err != nil {
				return "", err
			}
			return FormatSideEffects(pts) + SideEffectsCSV(pts), nil
		}},
		{"AblateZeta", ablation(func(ctx context.Context, cfg MakespanConfig) (*AblationResult, error) {
			return AblateZeta(ctx, cfg, []int{0, 4, 16})
		})},
		{"AblateWayBytes", ablation(func(ctx context.Context, cfg MakespanConfig) (*AblationResult, error) {
			return AblateWayBytes(ctx, cfg, []int64{512, 4096})
		})},
		{"AblatePriorities", func(ctx context.Context, k kernel.Mode) (string, error) {
			res, err := AblatePriorities(ctx, mk(k))
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"AblateConfigDelay", func(ctx context.Context, k kernel.Mode) (string, error) {
			res, err := AblateConfigDelay(ctx, 3, 1, run, k, []float64{0, 0.05})
			if err != nil {
				return "", err
			}
			return res.Format() + res.CSV(), nil
		}},
		{"AcceptanceRatio", func(ctx context.Context, k kernel.Mode) (string, error) {
			cfg := DefaultAcceptanceConfig()
			cfg.DAGs = 10
			cfg.Run = run
			cfg.Kernel = k
			pts, err := AcceptanceRatio(ctx, cfg, []float64{1.0, 3.0})
			if err != nil {
				return "", err
			}
			return FormatAcceptance(pts) + AcceptanceCSV(pts), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ticked, tickedCounters := runCounted(t, c.run, kernel.Ticked)
			events, eventsCounters := runCounted(t, c.run, kernel.Events)
			if ticked != events {
				t.Errorf("output differs between kernels\nticked:\n%s\nevents:\n%s", ticked, events)
			}
			if len(eventsCounters) == 0 {
				t.Error("no metrics.Default counter moved; the run exercised nothing")
			}
			if !reflect.DeepEqual(tickedCounters, eventsCounters) {
				t.Errorf("metrics.Default counter deltas differ\nticked: %v\nevents: %v", tickedCounters, eventsCounters)
			}
		})
	}
}

// runCounted runs r under kernel k and returns its output with the
// nonzero deltas of every metrics.Default counter. It zeroes the counters
// and takes the baseline after that, which covers both kinds the sweeps
// move: the runner Stores its per-sweep progress counters instead of
// adding to them, and the tracer's collector republishes its running
// totals (trace.*) on every snapshot.
func runCounted(t *testing.T, r kernelRun, k kernel.Mode) (string, map[string]uint64) {
	t.Helper()
	for name := range metrics.Default.Snapshot().Counters {
		metrics.Default.Counter(name).Store(0)
	}
	base := metrics.Default.Snapshot().Counters
	out, err := r(context.Background(), k)
	if err != nil {
		t.Fatalf("%v kernel: %v", k, err)
	}
	delta := map[string]uint64{}
	for name, v := range metrics.Default.Snapshot().Counters {
		if d := v - base[name]; d != 0 {
			delta[name] = d
		}
	}
	return out, delta
}
