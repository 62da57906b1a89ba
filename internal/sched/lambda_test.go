package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/flight"
	"l15cache/internal/workload"
)

// refWaveSchedule is Alg. 1 with line 20 implemented literally: a full
// head+tail longest-path pass over the whole DAG after every wave, and Q
// rebuilt by scanning every node. It is the reference waveSchedule's
// maintained λ must match exactly.
func refWaveSchedule(t *dag.Task, zeta int, wayBytes int64, allocate bool, rec *flight.Recorder, task int32) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Task: t, Zeta: zeta, WayBytes: wayBytes, Model: etm.NewModel(t, wayBytes)}
	allocFlag := 0.0
	if allocate {
		allocFlag = 1
	}
	rec.Emit(flight.Event{Kind: flight.KindSchedStart, Task: task,
		Job: -1, Node: -1, Core: -1, Cluster: -1, Wave: -1,
		A: float64(zeta), B: float64(wayBytes), C: allocFlag})
	examined := make([]bool, len(t.Nodes))
	remaining := make([]int, len(t.Nodes))
	for id := range t.Nodes {
		remaining[id] = len(t.Pred(dag.NodeID(id)))
	}
	var omega []WayGroup
	used := 0
	pri := len(t.Nodes)
	lambda := t.LongestThrough(dag.RawCost)
	weight := res.Model.Weight()

	waveIdx := int32(0)
	q := []dag.NodeID{t.Source()}
	for len(q) > 0 {
		if allocate {
			next := omega[:0]
			for _, w := range omega {
				if !w.Global {
					w.Global = true
					if sucs := t.Succ(w.Owner); len(sucs) > 0 {
						w.Owner = sucs[0]
					}
					rec.Emit(flight.Event{Kind: flight.KindGVConvert,
						Time: float64(waveIdx), Task: task, Job: -1,
						Node: int32(w.Owner), Core: -1, Cluster: -1,
						Wave: waveIdx, A: float64(w.Size)})
					next = append(next, w)
				} else {
					used -= w.Size
				}
			}
			omega = next
		}
		wave := append([]dag.NodeID(nil), q...)
		sort.SliceStable(wave, func(a, b int) bool {
			if lambda[wave[a]] != lambda[wave[b]] {
				return lambda[wave[a]] > lambda[wave[b]]
			}
			return wave[a] < wave[b]
		})
		rec.Emit(flight.Event{Kind: flight.KindWave,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx,
			A: float64(len(wave)), B: float64(used)})
		for _, vj := range wave {
			if allocate && len(t.Succ(vj)) > 0 && used < zeta {
				size := fWays(t.Node(vj), res.Model, used, zeta)
				if size > 0 {
					omega = append(omega, WayGroup{Size: size, Owner: vj})
					used += size
					res.Model.Ways[vj] = size
					rec.Emit(flight.Event{Kind: flight.KindPlanWays,
						Time: float64(waveIdx), Task: task, Job: -1,
						Node: int32(vj), Core: -1, Cluster: -1,
						Wave: waveIdx, A: float64(size),
						B: float64(used), C: float64(zeta)})
				}
			}
			t.Node(vj).Priority = pri
			pri--
			examined[vj] = true
			for _, s := range t.Succ(vj) {
				remaining[s]--
			}
		}
		res.Waves = append(res.Waves, wave)

		lambda = t.LongestThrough(weight)
		maxLambda := 0.0
		for _, l := range lambda {
			if l > maxLambda {
				maxLambda = l
			}
		}
		rec.Emit(flight.Event{Kind: flight.KindLambda,
			Time: float64(waveIdx), Task: task, Job: -1, Node: -1,
			Core: -1, Cluster: -1, Wave: waveIdx, A: maxLambda})
		waveIdx++

		q = q[:0]
		for id := range t.Nodes {
			v := dag.NodeID(id)
			if !examined[v] && remaining[v] == 0 {
				q = append(q, v)
			}
		}
	}
	return res, nil
}

// oracleTasks is the DAG corpus of the exactness oracle: §5.1 synthetic
// tasks over p × cpr × U, PARSEC-like case-study tasks, and hand-built
// corner cases.
func oracleTasks(t *testing.T) map[string]*dag.Task {
	t.Helper()
	tasks := map[string]*dag.Task{}
	for _, p := range []int{9, 21} {
		for _, cpr := range []float64{0.1, 0.5} {
			for _, u := range []float64{0.2, 1.0} {
				for seed := int64(1); seed <= 30; seed++ {
					sp := workload.DefaultSynthParams()
					sp.MaxWidth, sp.CPR, sp.Utilization = p, cpr, u
					task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), sp)
					if err != nil {
						t.Fatal(err)
					}
					tasks[fmt.Sprintf("synthetic p=%d cpr=%g U=%g seed=%d", p, cpr, u, seed)] = task
				}
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		set, err := workload.TaskSet(rand.New(rand.NewSource(seed)), workload.DefaultTaskSetParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range set {
			tasks[fmt.Sprintf("taskset seed=%d %s", seed, task.Name)] = task
		}
	}

	// Zero-cost edges: ETM leaves a zero μ at zero whatever the ways.
	zero := dag.New("zero-cost", 100, 100)
	a := zero.AddNode("a", 2, 4096)
	b := zero.AddNode("b", 3, 4096)
	c := zero.AddNode("c", 1, 2048)
	d := zero.AddNode("d", 2, 0)
	zero.MustAddEdge(a, b, 0, 0.5)
	zero.MustAddEdge(a, c, 4, 0.5)
	zero.MustAddEdge(b, d, 0, 0.5)
	zero.MustAddEdge(c, d, 0, 0.5)
	tasks["zero-cost edges"] = zero
	// Tied λ: identical branches, broken by node ID.
	tasks["tied fork-join"] = dag.ForkJoin("tied", 6, 2, 1, 0.5, 4096)
	tasks["tied chain"] = dag.Chain("chain", 5, 1, 1, 0.5, 4096)
	tasks["fig1"] = dag.Fig1Example()
	// Two tied diamonds in sequence, so the second wave's heads depend
	// on the first wave's grants.
	dd := dag.New("diamonds", 100, 100)
	src := dd.AddNode("src", 1, 8192)
	l := dd.AddNode("l", 2, 4096)
	r := dd.AddNode("r", 2, 4096)
	mid := dd.AddNode("mid", 1, 6144)
	l2 := dd.AddNode("l2", 2, 2048)
	r2 := dd.AddNode("r2", 2, 2048)
	sink := dd.AddNode("sink", 1, 0)
	for _, e := range [][2]dag.NodeID{{src, l}, {src, r}, {l, mid}, {r, mid}, {mid, l2}, {mid, r2}, {l2, sink}, {r2, sink}} {
		dd.MustAddEdge(e[0], e[1], 3, 0.6)
	}
	tasks["tied diamonds"] = dd
	return tasks
}

// TestLambdaMaintenanceMatchesFullRefresh is the exactness oracle of
// waveSchedule's maintained λ: on every corpus task, for Alg. 1 at
// several ζ (including ζ running out mid-wave) and for longest-path-first,
// priorities, waves, way grants and the flight recording equal those of
// the full-refresh reference, with and without a recorder.
func TestLambdaMaintenanceMatchesFullRefresh(t *testing.T) {
	tasks := oracleTasks(t)
	if len(tasks) < 300 {
		t.Fatalf("oracle corpus has %d tasks, want at least 300", len(tasks))
	}
	type policy struct {
		name     string
		zeta     int
		allocate bool
	}
	policies := []policy{{"L15Schedule ζ=16", 16, true}, {"L15Schedule ζ=3", 3, true},
		{"L15Schedule ζ=0", 0, true}, {"LongestPathFirst", 0, false}}
	names := make([]string, 0, len(tasks))
	for name := range tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		task := tasks[name]
		for _, pol := range policies {
			for _, recorded := range []bool{false, true} {
				got, want := task.Clone(), task.Clone()
				var gotRec, wantRec *flight.Recorder
				if recorded {
					gotRec, wantRec = flight.NewCap(1<<12), flight.NewCap(1<<12)
				}
				gr, err := waveSchedule(got, pol.zeta, etm.DefaultWayBytes, pol.allocate, gotRec, 3)
				if err != nil {
					t.Fatal(err)
				}
				wr, err := refWaveSchedule(want, pol.zeta, etm.DefaultWayBytes, pol.allocate, wantRec, 3)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s, %s, recorded %v", name, pol.name, recorded)
				for id := range got.Nodes {
					if g, w := got.Nodes[id].Priority, want.Nodes[id].Priority; g != w {
						t.Fatalf("%s: node %d priority %d, want %d", where, id, g, w)
					}
				}
				if !reflect.DeepEqual(gr.Waves, wr.Waves) {
					t.Fatalf("%s: waves %v, want %v", where, gr.Waves, wr.Waves)
				}
				if !reflect.DeepEqual(gr.Model.Ways, wr.Model.Ways) {
					t.Fatalf("%s: ways %v, want %v", where, gr.Model.Ways, wr.Model.Ways)
				}
				if recorded {
					if gotRec.Dropped()+wantRec.Dropped() != 0 {
						t.Fatalf("%s: recorder ring overflowed", where)
					}
					g := flight.AppendJSONL(nil, gotRec.Snapshot())
					w := flight.AppendJSONL(nil, wantRec.Snapshot())
					if !bytes.Equal(g, w) {
						t.Fatalf("%s: flight recordings differ:\n%s\nwant\n%s", where, g, w)
					}
				}
			}
		}
	}
}
