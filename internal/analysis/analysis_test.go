package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/workload"
)

func TestMakespanChain(t *testing.T) {
	// A serial chain leaves no parallel slack: bound = Σ(C+μ) regardless
	// of m.
	task := dag.Chain("c", 4, 2, 3, 0.5, 1024)
	b, err := Makespan(task, 8, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*2.0 + 3*3.0
	if b.CriticalPath != want || b.Makespan != want {
		t.Errorf("bound = %+v, want cp = makespan = %g", b, want)
	}
}

func TestMakespanForkJoin(t *testing.T) {
	// src + 4 branches + sink, no comm: vol = 12, cp = 6.
	task := dag.ForkJoin("fj", 4, 2, 0, 0.5, 0)
	b, err := Makespan(task, 2, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	if b.Volume != 12 || b.CriticalPath != 6 {
		t.Fatalf("bound = %+v", b)
	}
	if want := 6 + (12-6)/2.0; b.Makespan != want {
		t.Errorf("makespan = %g, want %g", b.Makespan, want)
	}
	// Infinite-ish parallelism converges to the critical path.
	b64, _ := Makespan(task, 64, dag.RawCost)
	if b64.Makespan >= b.Makespan || b64.Makespan < b.CriticalPath {
		t.Errorf("m=64 bound %g out of range", b64.Makespan)
	}
}

func TestMakespanErrors(t *testing.T) {
	task := dag.Fig1Example()
	if _, err := Makespan(task, 0, dag.RawCost); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Makespan(dag.New("bad", 1, 1), 2, dag.RawCost); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestSchedulable(t *testing.T) {
	task := dag.Fig1Example() // D = 100, bound far below
	ok, b, err := Schedulable(task, 4, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || b.Makespan > 100 {
		t.Errorf("Fig. 1 example unschedulable: %+v", b)
	}
	tight := task.Clone()
	tight.Deadline = 5
	tight.Period = 5
	ok, _, err = Schedulable(tight, 4, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("impossible deadline reported schedulable")
	}
}

// TestSpeedupPositiveWithETM checks that Alg. 1's ETM weights lower the
// bound of the Fig. 1 example below its raw-cost bound, by less than the
// whole bound.
func TestSpeedupPositiveWithETM(t *testing.T) {
	task := dag.Fig1Example()
	res, err := sched.L15Schedule(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Makespan(task, 4, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Makespan(task, 4, res.Model.Weight())
	if err != nil {
		t.Fatal(err)
	}
	if s := (base.Makespan - prop.Makespan) / base.Makespan; s <= 0 || s >= 1 {
		t.Errorf("analytical speedup = %g, want in (0,1)", s)
	}
}

// Property: the Graham bound is safe — it never undercuts the simulated
// makespan of the same platform on any synthetic workload, for the
// baseline (raw costs, no interference) and for the proposed system.
func TestQuickBoundIsSafe(t *testing.T) {
	f := func(seed int64, mr uint8) bool {
		m := int(mr%8) + 1
		r := rand.New(rand.NewSource(seed))
		p := workload.DefaultSynthParams()
		task, err := workload.Synthetic(r, p)
		if err != nil {
			return false
		}

		// Proposed system: ETM-reduced fetches, no interference.
		prop, err := schedsim.NewProposed(task.Clone(), 16, 2048)
		if err != nil {
			return false
		}
		stats, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{Cores: m})
		if err != nil {
			return false
		}
		b, err := Makespan(prop.Alloc.Task, m, prop.Alloc.Model.Weight())
		if err != nil {
			return false
		}
		return stats[0].Makespan <= b.Makespan+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: more cores never increase the bound; reduced edge costs never
// increase it either.
func TestQuickBoundMonotone(t *testing.T) {
	half := func(e dag.Edge) float64 { return e.Cost / 2 }
	f := func(seed int64, mr uint8) bool {
		m := int(mr%8) + 1
		r := rand.New(rand.NewSource(seed))
		task, err := workload.Synthetic(r, workload.DefaultSynthParams())
		if err != nil {
			return false
		}
		b1, err := Makespan(task, m, dag.RawCost)
		if err != nil {
			return false
		}
		b2, err := Makespan(task, m+1, dag.RawCost)
		if err != nil {
			return false
		}
		bh, err := Makespan(task, m, half)
		if err != nil {
			return false
		}
		return b2.Makespan <= b1.Makespan+1e-9 && bh.Makespan <= b1.Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCondMakespanDominatesScenarios(t *testing.T) {
	// Build a conditional task and check the worst-case bound dominates
	// every scenario's own bound and equals the max.
	task := dag.New("cond", 100, 100)
	src := task.AddNode("src", 1, 1024)
	b := task.AddNode("branch", 2, 1024)
	long1 := task.AddNode("long1", 8, 1024)
	long2 := task.AddNode("long2", 8, 1024)
	short1 := task.AddNode("short1", 3, 1024)
	m := task.AddNode("merge", 2, 1024)
	sink := task.AddNode("sink", 1, 0)
	task.MustAddEdge(src, b, 1, 0.5)
	task.MustAddEdge(b, long1, 1, 0.5)
	task.MustAddEdge(long1, long2, 1, 0.5)
	task.MustAddEdge(long2, m, 1, 0.5)
	task.MustAddEdge(b, short1, 1, 0.5)
	task.MustAddEdge(short1, m, 1, 0.5)
	task.MustAddEdge(m, sink, 1, 0.5)

	ct := dag.NewConditional(task)
	if err := ct.AddConditional(b, m, [][]dag.NodeID{{long1, long2}, {short1}}); err != nil {
		t.Fatal(err)
	}
	worst, err := CondMakespan(ct, 4, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	var maxScenario float64
	err = ct.EachScenario(func(choice []int, st *dag.Task) error {
		bnd, err := Makespan(st, 4, dag.RawCost)
		if err != nil {
			return err
		}
		if bnd.Makespan > worst.Makespan+1e-9 {
			t.Errorf("scenario %v bound %g exceeds worst %g", choice, bnd.Makespan, worst.Makespan)
		}
		if bnd.Makespan > maxScenario {
			maxScenario = bnd.Makespan
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst.Makespan != maxScenario {
		t.Errorf("worst %g != max scenario %g", worst.Makespan, maxScenario)
	}
	// The long arm defines the worst case.
	longOnly, err := ct.Scenario([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Makespan(longOnly, 4, dag.RawCost)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Makespan != lb.Makespan {
		t.Errorf("worst %g should come from the long arm (%g)", worst.Makespan, lb.Makespan)
	}
}
