package schedsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/sched"
	"l15cache/internal/workload"
)

// wrapped hides a platform's concrete type behind a struct that embeds
// it, so a test can check that Run treats it by its costs alone.
type wrapped struct{ Platform }

// system is one platform with the schedule it simulates. free marks the
// placement-free platforms: no affinity and no warm speed-up, so every
// instance repeats instance 0.
type system struct {
	name  string
	alloc *sched.Result
	plat  Platform
	free  bool
}

// coldOnly is a CMP|Shared-L1 without its warm speed-up: no affinity and
// warm terms equal to cold ones, so it is placement-free although its
// edge costs still depend on the placement within an instance.
func coldOnly() *CMP {
	c := SharedL1()
	c.P.Name, c.P.ExecSpeedup = "CMP|cold", 0
	return c
}

// replaySystems schedules task for the four platforms and coldOnly: Alg. 1
// for the proposed system, one shared longest-path-first schedule for the
// rest.
func replaySystems(t *testing.T, task *dag.Task) []system {
	t.Helper()
	prop, err := NewProposed(task.Clone(), DefaultZeta, DefaultWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	lpf := mustSchedule(t, task.Clone())
	return []system{
		{"Prop", prop.Alloc, prop, true},
		{"CMP|L1", lpf, CMPL1(), false},
		{"CMP|L2", lpf, CMPL2(), false},
		{"CMP|Shared-L1", lpf, SharedL1(), false},
		{"CMP|cold", lpf, coldOnly(), true},
	}
}

func synthTask(t *testing.T, seed int64, width int, cpr float64) *dag.Task {
	t.Helper()
	p := workload.DefaultSynthParams()
	p.MaxWidth, p.CPR = width, cpr
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), p)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// counted runs the simulation and returns its stats, the schedsim counter
// deltas and the number of instances actually simulated.
func counted(t *testing.T, s system, opt Options) (st []InstanceStats, instances, dispatches uint64, simulated int) {
	t.Helper()
	i0, d0 := mInstances.Load(), mDispatches.Load()
	st, simulated, err := run(s.alloc, s.plat, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st, mInstances.Load() - i0, mDispatches.Load() - d0, simulated
}

// placements returns each instance's node→core placement, read from the
// KindDispatch events of a recorded full ticked simulation.
func placements(t *testing.T, s system, opt Options) [][]int {
	t.Helper()
	n := len(s.alloc.Task.Nodes)
	out := make([][]int, opt.Instances)
	for i := range out {
		out[i] = make([]int, n)
	}
	opt.Kernel = kernel.Ticked
	opt.Recorder = flight.New()
	if _, err := Run(s.alloc, s.plat, opt); err != nil {
		t.Fatal(err)
	}
	for _, e := range opt.Recorder.Events() {
		if e.Kind == flight.KindDispatch {
			out[e.Job][e.Node] = int(e.Core)
		}
	}
	return out
}

// wantSimulated is the replay rule: a placement-free platform simulates
// instance 0 only; otherwise instances up to and including the first warm
// one whose placement repeats its predecessor's are simulated, the rest
// are copies.
func wantSimulated(place [][]int, free bool) int {
	if free {
		return min(1, len(place))
	}
	for i := 1; i < len(place); i++ {
		if slices.Equal(place[i], place[i-1]) {
			return i + 1
		}
	}
	return len(place)
}

// TestReplayMatchesTicked checks that steady-state replay in the events
// kernel returns exactly the ticked kernel's full simulation — stats and
// schedsim counters — and that it simulates exactly the instances the
// replay rule says it must: one for Prop and the cold-only CMP, whether
// or not their concrete type is visible, and at least two of two or more
// for the baselines with a warm speed-up, CMP|Shared-L1 included.
func TestReplayMatchesTicked(t *testing.T) {
	var total, simulated int
	for seed := int64(1); seed <= 52; seed++ {
		width := []int{9, 21}[seed%2]
		cpr := []float64{0.1, 0.5}[(seed/2)%2]
		task := synthTask(t, seed, width, cpr)
		n := len(task.Nodes)
		for _, s := range replaySystems(t, task) {
			for _, inst := range []int{1, 2, 3, 10} {
				for _, cores := range []int{2, 8} {
					opt := Options{Cores: cores, Instances: inst, Kernel: kernel.Ticked}
					stT, instT, dispT, _ := counted(t, s, opt)
					opt.Kernel = kernel.Events
					stE, instE, dispE, sim := counted(t, s, opt)
					if !slices.Equal(stT, stE) {
						t.Fatalf("seed %d %s inst %d cores %d: stats diverged:\nticked %+v\nevents %+v",
							seed, s.name, inst, cores, stT, stE)
					}
					if instT != instE || dispT != dispE {
						t.Fatalf("seed %d %s inst %d cores %d: counters ticked %d/%d, events %d/%d",
							seed, s.name, inst, cores, instT, dispT, instE, dispE)
					}
					if instE != uint64(inst) || dispE != uint64(inst*n) {
						t.Fatalf("seed %d %s: counted %d instances / %d dispatches, want %d / %d",
							seed, s.name, instE, dispE, inst, inst*n)
					}
					want := wantSimulated(placements(t, s, opt), s.free)
					if sim != want {
						t.Fatalf("seed %d %s inst %d cores %d: simulated %d instances, want %d",
							seed, s.name, inst, cores, sim, want)
					}
					w := s
					w.plat = wrapped{s.plat}
					if stW, _, _, simW := counted(t, w, opt); simW != sim || !slices.Equal(stW, stE) {
						t.Fatalf("seed %d %s inst %d cores %d: wrapped platform simulated %d instances, want %d",
							seed, s.name, inst, cores, simW, sim)
					}
					total += inst
					simulated += want
				}
			}
		}
	}
	if simulated == total {
		t.Fatal("no instance was replayed; the test is vacuous")
	}
	t.Logf("simulated %d of %d instances", simulated, total)
}

// TestReplayUnsettledPlacement covers a CMP|L1 run (seed 1, p=21,
// cpr=0.1) whose placement changes at every one of its 10 instances, so
// nothing may be replayed.
func TestReplayUnsettledPlacement(t *testing.T) {
	task := synthTask(t, 1, 21, 0.1)
	s := replaySystems(t, task)[1]
	opt := Options{Cores: 8, Instances: 10}
	place := placements(t, s, opt)
	for i := 1; i < len(place); i++ {
		if slices.Equal(place[i], place[i-1]) {
			t.Fatalf("placement settles at instance %d; the case needs one that never does", i)
		}
	}
	stT, _, _, _ := counted(t, s, Options{Cores: 8, Instances: 10, Kernel: kernel.Ticked})
	stE, _, _, sim := counted(t, s, opt)
	if !slices.Equal(stT, stE) {
		t.Fatalf("stats diverged:\nticked %+v\nevents %+v", stT, stE)
	}
	if sim != opt.Instances {
		t.Fatalf("simulated %d instances, want all %d", sim, opt.Instances)
	}
}

// TestReplayRecorderStats checks that attaching a flight recorder, which
// turns replay off, yields the same stats as the replaying run.
func TestReplayRecorderStats(t *testing.T) {
	task := synthTask(t, 3, 15, 0.3)
	for _, s := range replaySystems(t, task) {
		opt := Options{Cores: 8, Instances: 10}
		plain, _, _, replayed := counted(t, s, opt)
		opt.Recorder = flight.New()
		recorded, _, _, full := counted(t, s, opt)
		if !slices.Equal(plain, recorded) {
			t.Errorf("%s: stats differ with a recorder:\nplain    %+v\nrecorded %+v", s.name, plain, recorded)
		}
		if full != opt.Instances {
			t.Errorf("%s: recorded run simulated %d instances, want all %d", s.name, full, opt.Instances)
		}
		if replayed >= full {
			t.Errorf("%s: plain run simulated %d instances, want fewer than %d", s.name, replayed, full)
		}
	}
}

// resultState is everything of a *sched.Result that Run reads.
type resultState struct {
	Nodes     []dag.Node
	Ways      []int
	EdgeCosts []float64
}

func stateOf(r *sched.Result) resultState {
	st := resultState{Ways: append([]int(nil), r.Model.Ways...)}
	for _, v := range r.Task.Nodes {
		st.Nodes = append(st.Nodes, *v)
	}
	for _, e := range r.Task.Edges {
		st.EdgeCosts = append(st.EdgeCosts, r.EdgeCost(e))
	}
	return st
}

// TestRunDoesNotMutateResult pins the property that lets the CMP systems
// share one schedule: Run leaves node priorities, Model.Ways and the ETM
// edge costs of its *sched.Result untouched, on every platform and kernel.
func TestRunDoesNotMutateResult(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		task := synthTask(t, seed, 15, 0.3)
		for _, s := range replaySystems(t, task) {
			before := stateOf(s.alloc)
			for _, k := range []kernel.Mode{kernel.Ticked, kernel.Events} {
				if _, err := Run(s.alloc, s.plat, Options{Cores: 8, Instances: 10, Kernel: k}); err != nil {
					t.Fatal(err)
				}
				if after := stateOf(s.alloc); !reflect.DeepEqual(before, after) {
					t.Fatalf("seed %d %s kernel %v: Run mutated its *sched.Result", seed, s.name, k)
				}
			}
		}
	}
}
