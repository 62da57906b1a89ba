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

// countingPlatform wraps a platform and counts ExecTime calls, one per
// simulated dispatch, so a test can tell simulated instances from
// replayed ones. The count does not feed back into any returned value.
type countingPlatform struct {
	Platform
	calls *int
}

func (c countingPlatform) ExecTime(v *dag.Node, warm bool, busyFrac float64) float64 {
	*c.calls++
	return c.Platform.ExecTime(v, warm, busyFrac)
}

// system is one platform with the schedule it simulates.
type system struct {
	name  string
	alloc *sched.Result
	plat  Platform
}

// replaySystems schedules task for the four platforms: Alg. 1 for the
// proposed system, one shared longest-path-first schedule for the rest.
func replaySystems(t *testing.T, task *dag.Task) []system {
	t.Helper()
	prop, err := NewProposed(task.Clone(), DefaultZeta, DefaultWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	lpf := mustSchedule(t, task.Clone())
	return []system{
		{"Prop", prop.Alloc, prop},
		{"CMP|L1", lpf, CMPL1()},
		{"CMP|L2", lpf, CMPL2()},
		{"CMP|Shared-L1", lpf, SharedL1()},
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
// deltas and the number of dispatches actually simulated.
func counted(t *testing.T, s system, opt Options) (st []InstanceStats, instances, dispatches uint64, simulated int) {
	t.Helper()
	i0, d0 := mInstances.Load(), mDispatches.Load()
	st, err := Run(s.alloc, countingPlatform{s.plat, &simulated}, opt)
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

// wantSimulated is the replay rule: instances up to and including the
// first warm one whose placement repeats its predecessor's are simulated,
// the rest are copies.
func wantSimulated(place [][]int) int {
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
// replay rule says it must.
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
					stE, instE, dispE, calls := counted(t, s, opt)
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
					want := wantSimulated(placements(t, s, opt))
					if calls != want*n {
						t.Fatalf("seed %d %s inst %d cores %d: simulated %d dispatches, want %d (%d instances)",
							seed, s.name, inst, cores, calls, want*n, want)
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
	stE, _, _, calls := counted(t, s, opt)
	if !slices.Equal(stT, stE) {
		t.Fatalf("stats diverged:\nticked %+v\nevents %+v", stT, stE)
	}
	if want := opt.Instances * len(task.Nodes); calls != want {
		t.Fatalf("simulated %d dispatches, want all %d", calls, want)
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
		if full != opt.Instances*len(task.Nodes) {
			t.Errorf("%s: recorded run simulated %d dispatches, want all %d", s.name, full, opt.Instances*len(task.Nodes))
		}
		if replayed >= full {
			t.Errorf("%s: plain run simulated %d dispatches, want fewer than %d", s.name, replayed, full)
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
