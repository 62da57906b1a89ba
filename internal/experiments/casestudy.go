package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"l15cache/internal/flight"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/workload"
)

// CaseStudySystems lists the four systems of Fig. 8 in report order.
func CaseStudySystems() []rtsim.Kind {
	return []rtsim.Kind{rtsim.KindProp, rtsim.KindCMPL1, rtsim.KindCMPL2, rtsim.KindSharedL1}
}

// CaseStudyConfig configures the Fig. 8(a,b) experiment.
type CaseStudyConfig struct {
	Cores  int   // 8 or 16
	Trials int   // 200 in the paper
	Tasks  int   // DAG tasks per set (defaults to Cores)
	Seed   int64 // root RNG seed (per-trial seeds derive from it)
	RT     rtsim.Config
	Set    workload.TaskSetParams
	Run    runner.Options // worker pool / checkpoint settings
}

// DefaultCaseStudyConfig mirrors §5.2 for the given core count.
func DefaultCaseStudyConfig(cores int) CaseStudyConfig {
	rt := rtsim.DefaultConfig()
	rt.Cores = cores
	return CaseStudyConfig{
		Cores:  cores,
		Trials: 200,
		Tasks:  2 * cores,
		Seed:   1,
		RT:     rt,
		Set:    workload.DefaultTaskSetParams(),
	}
}

// CaseStudyPoint is one target-utilisation point: the per-system success
// ratio over the trials.
type CaseStudyPoint struct {
	Utilization float64
	Success     map[string]float64
}

// CaseStudyResult is one subplot of Fig. 8(a,b).
type CaseStudyResult struct {
	Cores  int
	Points []CaseStudyPoint
}

// RunCaseStudy sweeps the target utilisation (fraction of total core
// capacity, the paper's 40%–90% at 5% steps) and returns the success ratio
// of every system. Within a trial all systems execute the identical task
// set, matching the paper's fairness protocol. Trials of a point fan out
// on the runner; each draws its task set from its shard seed alone.
func RunCaseStudy(ctx context.Context, cfg CaseStudyConfig, utils []float64) (*CaseStudyResult, error) {
	if cfg.Cores <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: need positive Cores and Trials")
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = cfg.Cores
	}
	out := &CaseStudyResult{Cores: cfg.Cores}
	for ui, util := range utils {
		set := cfg.Set
		set.TargetUtilization = util * float64(cfg.Cores)
		set.Tasks = cfg.Tasks
		successes, err := runner.Map(ctx, runner.Config{
			Name:        fmt.Sprintf("casestudy/%dc/u=%g", cfg.Cores, util),
			RootSeed:    runner.Seed(cfg.Seed, ui),
			Options:     cfg.Run,
			Fingerprint: taskSetTrialFingerprint("casestudy", set, cfg.RT),
		}, cfg.Trials, func(_ context.Context, s runner.Shard) (map[string]bool, error) {
			return runCaseTrial(cfg.RT, set, s.Seed)
		})
		if err != nil {
			return nil, err
		}
		pt := CaseStudyPoint{
			Utilization: util,
			Success:     map[string]float64{},
		}
		for _, trial := range successes {
			for sys, ok := range trial {
				if ok {
					pt.Success[sys] += 1 / float64(cfg.Trials)
				}
			}
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func runCaseTrial(rt rtsim.Config, set workload.TaskSetParams, seed int64) (map[string]bool, error) {
	r := rand.New(rand.NewSource(seed))
	tasks, err := workload.TaskSet(r, set)
	if err != nil {
		return nil, err
	}
	kinds := CaseStudySystems()
	ok, err := rtsim.Schedulable(tasks, kinds, rt)
	if err != nil {
		return nil, err
	}
	res := make(map[string]bool, len(kinds))
	for i, kind := range kinds {
		res[kind.String()] = ok[i]
	}
	return res, nil
}

// RecordCaseTrial runs one representative case-study trial (60% target
// utilisation on the given core count, proposed system) with rec
// attached, for cmd/explain to dissect. The recording is a pure function
// of seed and cores.
func RecordCaseTrial(seed int64, cores int, rec *flight.Recorder) error {
	r := rand.New(rand.NewSource(seed))
	set := workload.DefaultTaskSetParams()
	set.TargetUtilization = 0.6 * float64(cores)
	tasks, err := workload.TaskSet(r, set)
	if err != nil {
		return err
	}
	cfg := rtsim.DefaultConfig()
	cfg.Cores = cores
	cfg.Recorder = rec
	_, err = rtsim.Run(tasks, rtsim.KindProp, cfg)
	return err
}

// Format renders the success-ratio table behind Fig. 8(a) or (b).
func (r *CaseStudyResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig.8 — success ratio, %d cores\n", r.Cores)
	systems := CaseStudySystems()
	fmt.Fprintf(&sb, "%8s", "util")
	for _, sys := range systems {
		fmt.Fprintf(&sb, "%15s", sys.String())
	}
	sb.WriteByte('\n')
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%7.0f%%", pt.Utilization*100)
		for _, sys := range systems {
			fmt.Fprintf(&sb, "%15.3f", pt.Success[sys.String()])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SideEffectsConfig configures the §5.3 analysis (Fig. 8(c)).
type SideEffectsConfig struct {
	Trials int
	Tasks  int
	Seed   int64
	RT     rtsim.Config
	Set    workload.TaskSetParams
	Run    runner.Options // worker pool / checkpoint settings
}

// SideEffectsPoint is one "xc|y%" configuration of Fig. 8(c).
type SideEffectsPoint struct {
	Cores          int
	Utilization    float64
	WayUtilization float64 // mean over trials
	Phi            float64 // mean over trials
}

// Label renders the paper's "xc|y%" x-axis label.
func (p SideEffectsPoint) Label() string {
	return fmt.Sprintf("%dc|%.0f%%", p.Cores, p.Utilization*100)
}

// sideTrial carries one trial's raw metrics. Fields are exported so the
// runner can checkpoint a trial as JSON.
type sideTrial struct {
	WayUtilization float64 `json:"way_utilization"`
	Phi            float64 `json:"phi"`
}

// RunSideEffects reproduces Fig. 8(c): the proposed system only, under the
// given core-count / target-utilisation configurations, reporting the L1.5
// way utilisation and the mis-configuration ratio φ. Trials of each
// configuration fan out on the runner.
func RunSideEffects(ctx context.Context, cfg SideEffectsConfig, cores []int, utils []float64) ([]SideEffectsPoint, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: need positive Trials")
	}
	var out []SideEffectsPoint
	for ci, c := range cores {
		for ui, util := range utils {
			rt := cfg.RT
			rt.Cores = c
			tasks := cfg.Tasks
			if tasks <= 0 {
				tasks = c
			}
			set := cfg.Set
			set.TargetUtilization = util * float64(c)
			set.Tasks = tasks
			trials, err := runner.Map(ctx, runner.Config{
				Name:        fmt.Sprintf("sideeffects/%dc/u=%g", c, util),
				RootSeed:    runner.Seed(cfg.Seed, ci*len(utils)+ui),
				Options:     cfg.Run,
				Fingerprint: taskSetTrialFingerprint("sideeffects", set, rt),
			}, cfg.Trials, func(_ context.Context, s runner.Shard) (sideTrial, error) {
				ts, err := workload.TaskSet(s.RNG(), set)
				if err != nil {
					return sideTrial{}, err
				}
				m, err := rtsim.Run(ts, rtsim.KindProp, rt)
				if err != nil {
					return sideTrial{}, err
				}
				return sideTrial{WayUtilization: m.WayUtilization, Phi: m.Phi}, nil
			})
			if err != nil {
				return nil, err
			}
			var wu, phi float64
			for _, t := range trials {
				wu += t.WayUtilization
				phi += t.Phi
			}
			out = append(out, SideEffectsPoint{
				Cores:          c,
				Utilization:    util,
				WayUtilization: wu / float64(cfg.Trials),
				Phi:            phi / float64(cfg.Trials),
			})
		}
	}
	return out, nil
}

// FormatSideEffects renders the Fig. 8(c) table.
func FormatSideEffects(points []SideEffectsPoint) string {
	var sb strings.Builder
	sb.WriteString("Fig.8(c) — L1.5 utilisation and mis-configuration ratio φ\n")
	fmt.Fprintf(&sb, "%10s%16s%10s\n", "config", "way util", "φ")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%10s%15.1f%%%9.3f%%\n", pt.Label(), pt.WayUtilization*100, pt.Phi*100)
	}
	return sb.String()
}
