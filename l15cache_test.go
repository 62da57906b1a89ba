package l15cache_test

import (
	"math/rand"
	"testing"

	"l15cache"
	"l15cache/internal/workload"
)

// TestQuickstartFlow exercises the documented public-API path end to end:
// build task → Alg. 1 → simulate, and checks the headline property (the
// proposed system beats the baselines and is warm-up free).
func TestQuickstartFlow(t *testing.T) {
	task := l15cache.Fig1Example()
	alloc, err := l15cache.Schedule(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Model.Ways[0] == 0 {
		t.Error("source received no ways")
	}

	opt := l15cache.SimOptions{Cores: 4, Instances: 4}
	prop := &l15cache.Proposed{Alloc: alloc}
	propStats, err := l15cache.Simulate(alloc, prop, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(propStats); i++ {
		if propStats[i].Makespan != propStats[0].Makespan {
			t.Error("proposed system should be warm-up free")
		}
	}

	base, err := l15cache.LongestPathFirst(task.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []l15cache.Platform{l15cache.CMPL1(), l15cache.CMPL2(), l15cache.SharedL1()} {
		stats, err := l15cache.Simulate(base, plat, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats[0].Makespan <= propStats[0].Makespan {
			t.Errorf("%s cold makespan %.2f should exceed Prop %.2f",
				plat.Name(), stats[0].Makespan, propStats[0].Makespan)
		}
	}
}

func TestETMCostFacade(t *testing.T) {
	if got := l15cache.ETMCost(10, 0.5, 4096, 2048, 2); got != 5 {
		t.Errorf("ETMCost = %g, want 5", got)
	}
}

func TestNewTaskFacade(t *testing.T) {
	task := l15cache.NewTask("t", 10, 10)
	a := task.AddNode("a", 1, 1024)
	b := task.AddNode("b", 2, 0)
	if err := task.AddEdge(a, b, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRTFacade(t *testing.T) {
	p := workload.DefaultTaskSetParams()
	p.TargetUtilization = 3
	p.Tasks = 8
	tasks, err := workload.TaskSet(rand.New(rand.NewSource(1)), p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l15cache.RunRT(tasks, l15cache.SystemProp, l15cache.DefaultRTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs == 0 {
		t.Error("no jobs simulated")
	}
}

func TestAssembleFacade(t *testing.T) {
	words, err := l15cache.Assemble("li a0, 1\nebreak", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 {
		t.Errorf("words = %d", len(words))
	}
}

func TestSoCFacade(t *testing.T) {
	runSharingDemo(t)
}

func TestDefaultSynthParamsFacade(t *testing.T) {
	p := l15cache.DefaultSynthParams()
	if p.MaxWidth != 15 || p.CPR != 0.1 || p.Utilization != 0.8 {
		t.Errorf("unexpected defaults: %+v", p)
	}
}

func TestAnalyzeMakespanFacade(t *testing.T) {
	task := l15cache.Fig1Example()
	bound, err := l15cache.AnalyzeMakespan(task, 4, l15cache.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Makespan < bound.CriticalPath || bound.CriticalPath <= 0 {
		t.Errorf("bound = %+v", bound)
	}
	// The simulated makespan respects the bound.
	alloc, err := l15cache.LongestPathFirst(task.Clone())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := l15cache.Simulate(alloc, rawFacadePlat{}, l15cache.SimOptions{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Makespan > bound.Makespan+1e-9 {
		t.Errorf("simulated %g exceeds bound %g", stats[0].Makespan, bound.Makespan)
	}
}

type rawFacadePlat struct{}

func (rawFacadePlat) Name() string                                 { return "raw" }
func (rawFacadePlat) ExecTime(v *l15cache.Node, warm bool) float64 { return v.WCET }
func (rawFacadePlat) CommCost(e l15cache.Edge, producer *l15cache.Node, sameCore bool) float64 {
	return e.Cost
}
func (rawFacadePlat) Interference() (exec, comm float64) { return 0, 0 }
func (rawFacadePlat) Affinity() bool                     { return false }

func TestKernelFacade(t *testing.T) {
	task := l15cache.NewTask("facade-pipe", 1, 1)
	a := task.AddNode("a", 800, 2048)
	b := task.AddNode("b", 600, 0)
	if err := task.AddEdge(a, b, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	k, err := l15cache.NewKernel(l15cache.KernelConfig{
		SoC:         l15cache.DefaultSoCConfig(),
		UseL15:      true,
		JobsPerTask: 1,
	}, []l15cache.KernelTask{{Task: task, PeriodCycles: 50_000, DeadlineCycles: 50_000}})
	if err != nil {
		t.Fatal(err)
	}
	records, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Missed {
		t.Errorf("records = %+v", records)
	}
}
