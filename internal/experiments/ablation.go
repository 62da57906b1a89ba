package experiments

import (
	"context"
	"fmt"
	"strings"

	"l15cache/internal/etm"
	"l15cache/internal/kernel"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/stats"
	"l15cache/internal/workload"
)

// The ablations isolate the design choices DESIGN.md calls out:
//
//   - ζ (way count): how much L1.5 capacity the co-design needs before the
//     makespan gains saturate;
//   - κ (way size): fewer/larger ways trade allocation granularity against
//     per-node coverage at fixed total capacity;
//   - priority policy: Alg. 1's λ-driven priorities versus plain
//     longest-path-first priorities *with* the same way allocation — does
//     the makespan win come from the ways, the priorities, or both;
//   - SDU configuration delay: how slow the one-way-per-cycle Walloc can
//     get before φ and deadline misses become visible.

// AblationPoint is one parameter value of an ablation sweep.
type AblationPoint struct {
	Param float64
	Value float64 // the ablated metric (see each sweep's doc)
}

// AblationResult is a named sweep.
type AblationResult struct {
	Name   string
	Metric string
	Points []AblationPoint
}

// Format renders the sweep as a two-column table.
func (a *AblationResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ablation — %s (%s)\n", a.Name, a.Metric)
	fmt.Fprintf(&sb, "%10s%14s\n", a.Name, "value")
	for _, p := range a.Points {
		fmt.Fprintf(&sb, "%10.4g%14.4f\n", p.Param, p.Value)
	}
	return sb.String()
}

// meanPropMakespan generates cfg.DAGs tasks on the runner and returns the
// mean deadline-normalised steady makespan of the proposed system at an
// explicit (ζ, κ) point. The ζ and κ sweeps both funnel through here, so
// their memo entries share one "prop-makespan" cache domain: a point
// where the sweeps cross (ζ = 16, κ = 2 KB) is computed once.
func meanPropMakespan(ctx context.Context, name string, cfg MakespanConfig, zeta int, wayBytes int64) (float64, error) {
	values, err := runner.Map(ctx, runner.Config{
		Name:        name,
		RootSeed:    cfg.Seed,
		Options:     cfg.Run,
		Fingerprint: propMakespanFingerprint(cfg, zeta, wayBytes),
	}, cfg.DAGs, func(_ context.Context, s runner.Shard) (float64, error) {
		task, err := workload.Synthetic(s.RNG(), cfg.Base)
		if err != nil {
			return 0, err
		}
		p, err := schedsim.NewProposed(task, zeta, wayBytes)
		if err != nil {
			return 0, err
		}
		st, err := schedsim.Run(p.Alloc, p, schedsim.Options{Cores: cfg.Cores, Instances: 1, Kernel: cfg.Kernel})
		if err != nil {
			return 0, err
		}
		return st[0].Makespan / task.Period, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(cfg.DAGs), nil
}

// AblateZeta sweeps the L1.5 way count ζ and reports the mean normalised
// makespan of the proposed system (lower is better; the paper's SoC uses
// 16).
func AblateZeta(ctx context.Context, cfg MakespanConfig, zetas []int) (*AblationResult, error) {
	out := &AblationResult{Name: "zeta", Metric: "mean makespan / T"}
	for _, z := range zetas {
		v, err := meanPropMakespan(ctx, fmt.Sprintf("ablation/zeta=%d", z), cfg, z, cfg.WayBytes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, AblationPoint{Param: float64(z), Value: v})
	}
	return out, nil
}

// AblateWayBytes sweeps κ at fixed total capacity ζ×κ = 32 KB and reports
// the mean normalised makespan: small ways allocate precisely but cap the
// per-node speed-up resolution; huge ways waste capacity on small δ.
func AblateWayBytes(ctx context.Context, cfg MakespanConfig, wayBytes []int64) (*AblationResult, error) {
	const totalBytes = 32 * 1024
	out := &AblationResult{Name: "kappa", Metric: "mean makespan / T (32KB total)"}
	for _, kb := range wayBytes {
		if kb <= 0 || totalBytes%kb != 0 {
			return nil, fmt.Errorf("experiments: way size %d does not divide %d", kb, totalBytes)
		}
		zeta := int(totalBytes / kb)
		v, err := meanPropMakespan(ctx, fmt.Sprintf("ablation/kappa=%d", kb), cfg, zeta, kb)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, AblationPoint{Param: float64(kb), Value: v})
	}
	return out, nil
}

// PriorityAblation compares three schedules on the same tasks and platform
// semantics (ETM communication, no interference):
//
//	full     — Alg. 1: ways + λ-recomputed priorities (the paper);
//	waysOnly — Alg. 1's way allocation but baseline longest-path-first
//	           priorities computed on raw costs;
//	prioOnly — Alg. 1's priorities but no ways (communication at full μ).
//
// It reports each variant's mean normalised makespan; the paper's design is
// justified if full < waysOnly < prioOnly.
type PriorityAblation struct {
	Full, WaysOnly, PrioOnly float64
}

// prioTrial carries one DAG's three variant makespans. Fields are
// exported so the runner can memoize a trial as JSON.
type prioTrial struct {
	Full     float64 `json:"full"`
	WaysOnly float64 `json:"ways_only"`
	PrioOnly float64 `json:"prio_only"`
}

// AblatePriorities runs the priority-policy ablation on the runner: each
// trial evaluates all three variants on the same task.
func AblatePriorities(ctx context.Context, cfg MakespanConfig) (PriorityAblation, error) {
	var out PriorityAblation
	trials, err := runner.Map(ctx, runner.Config{
		Name:        "ablation/prio",
		RootSeed:    cfg.Seed,
		Options:     cfg.Run,
		Fingerprint: prioAblationFingerprint(cfg),
	}, cfg.DAGs, func(_ context.Context, s runner.Shard) (prioTrial, error) {
		var tr prioTrial
		task, err := workload.Synthetic(s.RNG(), cfg.Base)
		if err != nil {
			return tr, err
		}

		// Full Alg. 1.
		p, err := schedsim.NewProposed(task.Clone(), cfg.Zeta, cfg.WayBytes)
		if err != nil {
			return tr, err
		}
		if tr.Full, err = oneNormMakespan(p.Alloc, p, cfg); err != nil {
			return tr, err
		}

		// Ways only: keep the allocation, overwrite priorities with the
		// raw longest-path-first assignment.
		waysAlloc, err := sched.L15Schedule(task.Clone(), cfg.Zeta, cfg.WayBytes)
		if err != nil {
			return tr, err
		}
		if _, err := sched.LongestPathFirst(waysAlloc.Task); err != nil {
			return tr, err
		}
		if tr.WaysOnly, err = oneNormMakespan(waysAlloc, &schedsim.Proposed{Alloc: waysAlloc}, cfg); err != nil {
			return tr, err
		}

		// Priorities only: Alg. 1 priorities, zero ways at run time
		// (an empty way model over the priority-bearing task).
		prioAlloc, err := sched.L15Schedule(task.Clone(), cfg.Zeta, cfg.WayBytes)
		if err != nil {
			return tr, err
		}
		empty := &sched.Result{
			Task:     prioAlloc.Task,
			WayBytes: cfg.WayBytes,
			Model:    etm.NewModel(prioAlloc.Task, cfg.WayBytes),
		}
		if tr.PrioOnly, err = oneNormMakespan(empty, &schedsim.Proposed{Alloc: empty}, cfg); err != nil {
			return tr, err
		}
		return tr, nil
	})
	if err != nil {
		return out, err
	}
	full := make([]float64, len(trials))
	waysOnly := make([]float64, len(trials))
	prioOnly := make([]float64, len(trials))
	for i, tr := range trials {
		full[i], waysOnly[i], prioOnly[i] = tr.Full, tr.WaysOnly, tr.PrioOnly
	}
	out.Full = stats.Mean(full)
	out.WaysOnly = stats.Mean(waysOnly)
	out.PrioOnly = stats.Mean(prioOnly)
	return out, nil
}

func oneNormMakespan(alloc *sched.Result, plat schedsim.Platform, cfg MakespanConfig) (float64, error) {
	st, err := schedsim.Run(alloc, plat, schedsim.Options{Cores: cfg.Cores, Instances: 1, Kernel: cfg.Kernel})
	if err != nil {
		return 0, err
	}
	return st[0].Makespan / alloc.Task.Period, nil
}

// Format renders the priority ablation.
func (p PriorityAblation) Format() string {
	var sb strings.Builder
	sb.WriteString("ablation — Alg. 1 components (mean makespan / T, lower is better)\n")
	fmt.Fprintf(&sb, "  full Alg. 1 (ways + λ priorities): %.4f\n", p.Full)
	fmt.Fprintf(&sb, "  ways only (raw-λ priorities):      %.4f\n", p.WaysOnly)
	fmt.Fprintf(&sb, "  priorities only (no ways):         %.4f\n", p.PrioOnly)
	return sb.String()
}

// AblateConfigDelay sweeps the SDU per-way configuration delay in the
// periodic simulator and reports φ (the §5.3 metric) at 8 cores, 80%
// utilisation. run carries the worker-pool/memo settings; kern
// selects the simulator kernel (events by default).
func AblateConfigDelay(ctx context.Context, trials int, seed int64, run runner.Options, kern kernel.Mode, delays []float64) (*AblationResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: trials = %d", trials)
	}
	out := &AblationResult{Name: "config-delay", Metric: "phi"}
	set := workload.DefaultTaskSetParams()
	set.TargetUtilization = 0.8 * 8
	set.Tasks = 16
	for di, d := range delays {
		if d < 0 {
			return nil, fmt.Errorf("experiments: negative delay %g", d)
		}
		cfg := rtsim.DefaultConfig()
		cfg.WayConfigDelay = d
		cfg.Kernel = kern
		phis, err := runner.Map(ctx, runner.Config{
			Name:        fmt.Sprintf("ablation/delay=%g", d),
			RootSeed:    runner.Seed(seed, di),
			Options:     run,
			Fingerprint: taskSetTrialFingerprint("ablation/delay", set, cfg),
		}, trials, func(_ context.Context, s runner.Shard) (float64, error) {
			tasks, err := workload.TaskSet(s.RNG(), set)
			if err != nil {
				return 0, err
			}
			m, err := rtsim.Run(tasks, rtsim.KindProp, cfg)
			if err != nil {
				return 0, err
			}
			return m.Phi, nil
		})
		if err != nil {
			return nil, err
		}
		var phi float64
		for _, p := range phis {
			phi += p
		}
		out.Points = append(out.Points, AblationPoint{Param: d, Value: phi / float64(trials)})
	}
	return out, nil
}

// AblationZetaDefault is the sweep the cmd tool and benchmarks run.
func AblationZetaDefault() []int { return []int{0, 2, 4, 8, 16, 32} }

// AblationWayBytesDefault holds κ values dividing 32 KB.
func AblationWayBytesDefault() []int64 { return []int64{512, 1024, 2048, 4096, 8192} }

// AblationDelayDefault holds SDU delays in task time units.
func AblationDelayDefault() []float64 { return []float64{0, 0.005, 0.01, 0.05, 0.2} }

// ETMDiminishingReturns is a pure-model ablation: the marginal
// communication-cost reduction per extra way for a node with the given δ,
// κ = 2 KB and α = 0.7, demonstrating why F(v, Ω, ζ) caps allocations at
// ⌈δ/κ⌉.
func ETMDiminishingReturns(mu float64, data int64, maxWays int) []AblationPoint {
	var out []AblationPoint
	for n := 0; n <= maxWays; n++ {
		out = append(out, AblationPoint{
			Param: float64(n),
			Value: etm.Cost(mu, 0.7, data, etm.DefaultWayBytes, n),
		})
	}
	return out
}
