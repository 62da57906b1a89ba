// Package experiments contains one typed harness per table and figure of
// the paper's evaluation (§5): the makespan comparison (Fig. 7, Tab. 2),
// the case study (Fig. 8(a,b)), the side-effects analysis (Fig. 8(c)),
// the acceptance-ratio analysis (§4.2) and the hardware overhead (§5.4).
// Each harness returns structured rows and can render itself as a text
// table or CSV, so the cmd/ tools and the benchmark suite print exactly
// the series the paper reports.
//
// Every randomized sweep runs on the internal/runner harness: trials
// execute on a bounded worker pool, each seeded from the sweep's root
// seed and its trial index only, so published numbers are bit-identical
// at any -workers setting and an interrupted sweep rerun over the same
// -memo-dir resumes from its finished trials. Each harness config embeds
// runner.Options as its Run field to expose those knobs.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"l15cache/internal/kernel"
	"l15cache/internal/runner"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/stats"
	"l15cache/internal/workload"
)

// Systems compared in the makespan experiments, in report order.
const (
	SysProp  = "Prop"
	SysCMPL1 = "CMP|L1"
	SysCMPL2 = "CMP|L2"
)

// MakespanConfig configures the Fig. 7 / Tab. 2 experiment.
type MakespanConfig struct {
	DAGs      int   // DAG tasks per parameter point (500 in the paper)
	Instances int   // instances per DAG (10; the first is cold)
	Cores     int   // m (8)
	Zeta      int   // ζ L1.5 ways (16)
	WayBytes  int64 // κ (2 KB)
	Seed      int64 // root RNG seed (per-DAG seeds derive from it)
	Base      workload.SynthParams
	Run       runner.Options // worker pool / memo settings
	Kernel    kernel.Mode    // simulator kernel (events by default)
}

// DefaultMakespanConfig mirrors §5.1 with the paper's defaults.
func DefaultMakespanConfig() MakespanConfig {
	return MakespanConfig{
		DAGs:      500,
		Instances: 10,
		Cores:     8,
		Zeta:      schedsim.DefaultZeta,
		WayBytes:  schedsim.DefaultWayBytes,
		Seed:      1,
		Base:      workload.DefaultSynthParams(),
	}
}

// MakespanPoint is the outcome of one parameter value: the per-system mean
// of the deadline-normalised average makespan (Fig. 7's metric before
// subplot normalisation) and of the deadline-normalised worst-case makespan
// (Tab. 2's metric).
type MakespanPoint struct {
	Param float64
	Avg   map[string]float64
	Worst map[string]float64
}

// MakespanSweep is one subplot of Fig. 7 plus the matching third of Tab. 2.
type MakespanSweep struct {
	Name   string // "U", "p" or "cpr"
	Points []MakespanPoint

	// NormAvg holds Avg normalised so the largest value across the sweep
	// is 1, matching Fig. 7's "normalised by the highest value observed".
	NormAvg []MakespanPoint
}

// Systems returns the system names present in the sweep, report order.
func (s *MakespanSweep) Systems() []string { return []string{SysProp, SysCMPL1, SysCMPL2} }

// dagResult carries one DAG's per-system makespans. Fields are exported
// so the runner can memoize a trial as JSON.
type dagResult struct {
	Avg   map[string]float64 `json:"avg"`   // mean makespan over instances, / T
	Worst map[string]float64 `json:"worst"` // max makespan over instances, / T
}

// runPoint evaluates one parameter point: cfg.DAGs random tasks, each run
// for cfg.Instances instances per system, fanned out on the runner.
func runPoint(ctx context.Context, cfg MakespanConfig, p workload.SynthParams, name string, pointSeed int64) (MakespanPoint, error) {
	out := MakespanPoint{
		Avg:   map[string]float64{},
		Worst: map[string]float64{},
	}
	results, err := runner.Map(ctx, runner.Config{
		Name:        name,
		RootSeed:    pointSeed,
		Options:     cfg.Run,
		Fingerprint: makespanFingerprint(cfg, p),
	}, cfg.DAGs, func(_ context.Context, s runner.Shard) (dagResult, error) {
		return runOneDAG(cfg, p, s.Seed)
	})
	if err != nil {
		return out, err
	}

	// Index-ordered reduction: fold the trials in shard order so the
	// floating-point sums cannot depend on completion order.
	sums := map[string]float64{}
	worsts := map[string]float64{}
	for _, r := range results {
		for sys, v := range r.Avg {
			sums[sys] += v
		}
		for sys, v := range r.Worst {
			worsts[sys] += v
		}
	}
	for sys, v := range sums {
		out.Avg[sys] = v / float64(cfg.DAGs)
	}
	for sys, v := range worsts {
		out.Worst[sys] = v / float64(cfg.DAGs)
	}
	return out, nil
}

func runOneDAG(cfg MakespanConfig, p workload.SynthParams, seed int64) (dagResult, error) {
	r := rand.New(rand.NewSource(seed))
	task, err := workload.Synthetic(r, p)
	if err != nil {
		return dagResult{}, err
	}
	res := dagResult{
		Avg:   map[string]float64{},
		Worst: map[string]float64{},
	}
	opt := schedsim.Options{Cores: cfg.Cores, Instances: cfg.Instances, Kernel: cfg.Kernel}

	// Proposed: Algorithm 1 priorities + ETM communication, on a clone so
	// its priorities stay apart from the baselines'.
	prop, err := schedsim.NewProposed(task.Clone(), cfg.Zeta, cfg.WayBytes)
	if err != nil {
		return dagResult{}, err
	}
	if err := record(&res, task.Period, SysProp, prop.Alloc, prop, opt); err != nil {
		return dagResult{}, err
	}

	// Baselines: longest-path-first priorities, conventional caches. Both
	// share one schedule of the task itself; schedsim.Run never mutates
	// its *sched.Result.
	alloc, err := sched.LongestPathFirst(task)
	if err != nil {
		return dagResult{}, err
	}
	for _, plat := range []schedsim.Platform{schedsim.CMPL1(), schedsim.CMPL2()} {
		if err := record(&res, task.Period, plat.Name(), alloc, plat, opt); err != nil {
			return dagResult{}, err
		}
	}
	return res, nil
}

func record(res *dagResult, period float64, name string, alloc *sched.Result, plat schedsim.Platform, opt schedsim.Options) error {
	st, err := schedsim.Run(alloc, plat, opt)
	if err != nil {
		return err
	}
	ms := schedsim.Makespans(st)
	res.Avg[name] = stats.Mean(ms) / period
	res.Worst[name] = stats.Max(ms) / period
	return nil
}

// SweepUtilization reproduces Fig. 7(a) / Tab. 2 left: U_i from values
// (paper: 0.2..1.0).
func SweepUtilization(ctx context.Context, cfg MakespanConfig, values []float64) (*MakespanSweep, error) {
	return sweep(ctx, cfg, "U", values, func(p *workload.SynthParams, v float64) {
		p.Utilization = v
	})
}

// SweepWidth reproduces Fig. 7(b) / Tab. 2 middle: p from values (paper:
// 9..21).
func SweepWidth(ctx context.Context, cfg MakespanConfig, values []float64) (*MakespanSweep, error) {
	return sweep(ctx, cfg, "p", values, func(p *workload.SynthParams, v float64) {
		p.MaxWidth = int(v)
	})
}

// SweepCPR reproduces Fig. 7(c) / Tab. 2 right: cpr from values (paper:
// 0.1..0.5).
func SweepCPR(ctx context.Context, cfg MakespanConfig, values []float64) (*MakespanSweep, error) {
	return sweep(ctx, cfg, "cpr", values, func(p *workload.SynthParams, v float64) {
		p.CPR = v
	})
}

func sweep(ctx context.Context, cfg MakespanConfig, name string, values []float64, set func(*workload.SynthParams, float64)) (*MakespanSweep, error) {
	if cfg.DAGs <= 0 || cfg.Instances <= 0 {
		return nil, fmt.Errorf("experiments: need positive DAGs and Instances")
	}
	out := &MakespanSweep{Name: name}
	for i, v := range values {
		p := cfg.Base
		set(&p, v)
		pt, err := runPoint(ctx, cfg, p,
			fmt.Sprintf("makespan/%s=%g", name, v), runner.Seed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		pt.Param = v
		out.Points = append(out.Points, pt)
	}
	out.normalise()
	return out, nil
}

// normalise fills NormAvg: the whole sweep divided by its largest average
// value, the presentation Fig. 7 uses.
func (s *MakespanSweep) normalise() {
	var max float64
	for _, pt := range s.Points {
		for _, v := range pt.Avg {
			if v > max {
				max = v
			}
		}
	}
	s.NormAvg = make([]MakespanPoint, len(s.Points))
	for i, pt := range s.Points {
		n := MakespanPoint{Param: pt.Param, Avg: map[string]float64{}}
		for sys, v := range pt.Avg {
			if max > 0 {
				n.Avg[sys] = v / max
			}
		}
		s.NormAvg[i] = n
	}
}

// Gain returns the mean relative improvement of Prop over the named system
// across the sweep, e.g. 0.111 for the paper's 11.1% over CMP|L1 in
// Fig. 7(a).
func (s *MakespanSweep) Gain(baseline string) float64 {
	var g float64
	for _, pt := range s.Points {
		if b := pt.Avg[baseline]; b > 0 {
			g += (b - pt.Avg[SysProp]) / b
		}
	}
	return g / float64(len(s.Points))
}

// WorstGain is Gain computed on the worst-case (Tab. 2) metric.
func (s *MakespanSweep) WorstGain(baseline string) float64 {
	var g float64
	for _, pt := range s.Points {
		if b := pt.Worst[baseline]; b > 0 {
			g += (b - pt.Worst[SysProp]) / b
		}
	}
	return g / float64(len(s.Points))
}

// FormatFig7 renders the sweep as the normalised-average table behind one
// subplot of Fig. 7.
func (s *MakespanSweep) FormatFig7() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig.7 — normalised average makespan vs %s\n", s.Name)
	systems := s.Systems()
	fmt.Fprintf(&sb, "%8s", s.Name)
	for _, sys := range systems {
		fmt.Fprintf(&sb, "%12s", sys)
	}
	sb.WriteByte('\n')
	for _, pt := range s.NormAvg {
		fmt.Fprintf(&sb, "%8.3g", pt.Param)
		for _, sys := range systems {
			fmt.Fprintf(&sb, "%12.3f", pt.Avg[sys])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "mean gain of %s: vs %s %.1f%%, vs %s %.1f%%\n",
		SysProp, SysCMPL1, 100*s.Gain(SysCMPL1), SysCMPL2, 100*s.Gain(SysCMPL2))
	return sb.String()
}

// FormatTable2 renders the worst-case third of Tab. 2 for this sweep. The
// CMP column follows the paper's Tab. 2, which reports the conventional
// system of [15] (our CMP|L1 parameterisation).
func (s *MakespanSweep) FormatTable2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tab.2 — normalised worst-case makespan vs %s\n", s.Name)
	fmt.Fprintf(&sb, "%8s%12s%12s\n", s.Name, "CMP [15]", "Prop")
	for _, pt := range s.Points {
		fmt.Fprintf(&sb, "%8.3g%12.3f%12.3f\n", pt.Param, pt.Worst[SysCMPL1], pt.Worst[SysProp])
	}
	fmt.Fprintf(&sb, "mean worst-case gain: %.1f%%\n", 100*s.WorstGain(SysCMPL1))
	return sb.String()
}
