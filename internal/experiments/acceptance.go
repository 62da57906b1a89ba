package experiments

import (
	"context"
	"fmt"
	"strings"

	"l15cache/internal/analysis"
	"l15cache/internal/dag"
	"l15cache/internal/kernel"
	"l15cache/internal/runner"
	"l15cache/internal/schedsim"
	"l15cache/internal/workload"
)

// The acceptance-ratio experiment exercises the §4.2 claim that existing
// DAG analysis applies to the co-design "with minor modifications for
// communication cost on edges": for a sweep of task utilisations it
// reports the fraction of random tasks whose *analytical* makespan bound
// meets the implicit deadline, with edge costs taken raw (conventional
// system) or ETM-reduced under Alg. 1's allocation (proposed system). The
// proposed system's bound accepts strictly more tasks — the analytical
// counterpart of Fig. 8's empirical success ratios.

// AcceptancePoint is one utilisation value of the sweep.
type AcceptancePoint struct {
	Utilization float64
	// Accepted fraction of tasks whose bound meets the deadline.
	PropAccepted float64
	BaseAccepted float64
	// SimFeasible is the fraction whose *simulated* proposed-system
	// makespan meets the deadline (the bound is sufficient, so
	// PropAccepted <= SimFeasible up to sampling noise... in fact always,
	// per-task: an accepted task is sim-feasible).
	SimFeasible float64
}

// AcceptanceConfig configures the experiment.
type AcceptanceConfig struct {
	DAGs     int
	Cores    int
	Zeta     int
	WayBytes int64
	Seed     int64
	Base     workload.SynthParams
	Run      runner.Options // worker pool / memo settings
	Kernel   kernel.Mode    // simulator kernel (events by default)
}

// DefaultAcceptanceConfig mirrors the makespan experiment's platform.
func DefaultAcceptanceConfig() AcceptanceConfig {
	return AcceptanceConfig{
		DAGs:     200,
		Cores:    8,
		Zeta:     schedsim.DefaultZeta,
		WayBytes: schedsim.DefaultWayBytes,
		Seed:     1,
		Base:     workload.DefaultSynthParams(),
	}
}

// acceptanceTrial records one task's three verdicts. Fields are exported
// so the runner can memoize a trial as JSON.
type acceptanceTrial struct {
	Base bool `json:"base"` // conventional bound meets the deadline
	Prop bool `json:"prop"` // proposed bound meets the deadline
	Sim  bool `json:"sim"`  // simulated proposed makespan meets the deadline
}

// AcceptanceRatio sweeps the task utilisation on the runner and returns
// the per-point acceptance fractions.
func AcceptanceRatio(ctx context.Context, cfg AcceptanceConfig, utils []float64) ([]AcceptancePoint, error) {
	if cfg.DAGs <= 0 || cfg.Cores <= 0 {
		return nil, fmt.Errorf("experiments: need positive DAGs and Cores")
	}
	var out []AcceptancePoint
	for ui, u := range utils {
		p := cfg.Base
		p.Utilization = u
		trials, err := runner.Map(ctx, runner.Config{
			Name:        fmt.Sprintf("acceptance/U=%g", u),
			RootSeed:    runner.Seed(cfg.Seed, ui),
			Options:     cfg.Run,
			Fingerprint: acceptanceFingerprint(cfg, p),
		}, cfg.DAGs, func(_ context.Context, s runner.Shard) (acceptanceTrial, error) {
			var tr acceptanceTrial
			task, err := workload.Synthetic(s.RNG(), p)
			if err != nil {
				return tr, err
			}

			// Conventional bound: raw edge costs.
			if tr.Base, _, err = analysis.Schedulable(task, cfg.Cores, dag.RawCost); err != nil {
				return tr, err
			}

			// Proposed bound: Alg. 1 allocation, ETM edge costs.
			prop, err := schedsim.NewProposed(task.Clone(), cfg.Zeta, cfg.WayBytes)
			if err != nil {
				return tr, err
			}
			if tr.Prop, _, err = analysis.Schedulable(prop.Alloc.Task, cfg.Cores, prop.Alloc.Model.Weight()); err != nil {
				return tr, err
			}

			// Ground truth on the proposed platform.
			st, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{Cores: cfg.Cores, Kernel: cfg.Kernel})
			if err != nil {
				return tr, err
			}
			tr.Sim = st[0].Makespan <= prop.Alloc.Task.Deadline
			if tr.Prop && !tr.Sim {
				return tr, fmt.Errorf("experiments: unsound bound at U=%g shard %d", u, s.Index)
			}
			return tr, nil
		})
		if err != nil {
			return nil, err
		}
		pt := AcceptancePoint{Utilization: u}
		for _, tr := range trials {
			if tr.Base {
				pt.BaseAccepted++
			}
			if tr.Prop {
				pt.PropAccepted++
			}
			if tr.Sim {
				pt.SimFeasible++
			}
		}
		n := float64(cfg.DAGs)
		pt.PropAccepted /= n
		pt.BaseAccepted /= n
		pt.SimFeasible /= n
		out = append(out, pt)
	}
	return out, nil
}

// FormatAcceptance renders the sweep.
func FormatAcceptance(points []AcceptancePoint) string {
	var sb strings.Builder
	sb.WriteString("acceptance ratio — analytical bound meets the deadline (8 cores)\n")
	fmt.Fprintf(&sb, "%8s%14s%14s%16s\n", "U", "CMP bound", "Prop bound", "Prop simulated")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%8.2f%14.3f%14.3f%16.3f\n",
			pt.Utilization, pt.BaseAccepted, pt.PropAccepted, pt.SimFeasible)
	}
	return sb.String()
}
