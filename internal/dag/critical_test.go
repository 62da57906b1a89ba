package dag_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/workload"
)

// refCriticalPathLength is the largest λ_j of a separate head+tail pass:
// the critical-path length before the fused pass.
func refCriticalPathLength(t *dag.Task, w dag.EdgeWeight) float64 {
	order, err := t.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := len(t.Nodes)
	head, tail := make([]float64, n), make([]float64, n)
	for _, id := range order {
		best := 0.0
		pe := t.PredEdges(id)
		for k, p := range t.Pred(id) {
			if l := head[p] + w(t.Edges[pe[k]]); l > best {
				best = l
			}
		}
		head[id] = best + t.Nodes[id].WCET
	}
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		se := t.SuccEdges(id)
		for k, s := range t.Succ(id) {
			if l := w(t.Edges[se[k]]) + t.Nodes[s].WCET + tail[s]; l > best {
				best = l
			}
		}
		tail[id] = best
	}
	var m float64
	for id := range head {
		if l := head[id] + tail[id]; l > m {
			m = l
		}
	}
	return m
}

// refCriticalPath is the critical path of its own forward pass with
// predecessor links: the critical path before the fused pass.
func refCriticalPath(t *dag.Task, w dag.EdgeWeight) []dag.NodeID {
	order, err := t.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := len(t.Nodes)
	head := make([]float64, n)
	from := make([]dag.NodeID, n)
	for _, id := range order {
		best, bestFrom := 0.0, dag.NodeID(-1)
		pe := t.PredEdges(id)
		for k, p := range t.Pred(id) {
			if l := head[p] + w(t.Edges[pe[k]]); l > best || bestFrom < 0 {
				best, bestFrom = l, p
			}
		}
		head[id] = best + t.Nodes[id].WCET
		from[id] = bestFrom
	}
	end := dag.NodeID(0)
	for id := 1; id < n; id++ {
		if len(t.Succ(dag.NodeID(id))) == 0 && head[id] > head[end] {
			end = dag.NodeID(id)
		}
	}
	if len(t.Succ(end)) != 0 {
		for id := 0; id < n; id++ {
			if head[id] > head[end] {
				end = dag.NodeID(id)
			}
		}
	}
	var path []dag.NodeID
	for id := end; id >= 0; id = from[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	return path
}

// oracleTasks returns §5.1 synthetic tasks over p × cpr × U, PARSEC-like
// tasks and the hand-built shapes the path oracles run on.
func oracleTasks(t *testing.T) []*dag.Task {
	var tasks []*dag.Task
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
					tasks = append(tasks, task)
				}
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		set, err := workload.TaskSet(rand.New(rand.NewSource(seed)), workload.DefaultTaskSetParams())
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, set...)
	}
	return append(tasks, dag.Fig1Example(), dag.ForkJoin("fj", 6, 2, 1, 0.5, 4096), dag.Chain("c", 5, 1, 1, 0.5, 0))
}

// TestCriticalPathIntoMatchesSeparatePasses is the exactness oracle of the
// fused steering pass: on §5.1 synthetic tasks over p × cpr × U and on
// PARSEC-like tasks, under raw, computation-only and reduced edge
// weights, CriticalPathInto (with one PathBuf reused throughout) returns
// exactly the length and path of the separate passes.
func TestCriticalPathIntoMatchesSeparatePasses(t *testing.T) {
	tasks := oracleTasks(t)
	weights := map[string]dag.EdgeWeight{
		"raw":     dag.RawCost,
		"zero":    dag.ZeroCost,
		"reduced": func(e dag.Edge) float64 { return e.Cost * (1 - e.Alpha) },
	}
	var buf dag.PathBuf
	for i, task := range tasks {
		for name, w := range weights {
			where := fmt.Sprintf("task %d (%s), %s weights", i, task.Name, name)
			length, path := task.CriticalPathInto(w, &buf)
			if want := refCriticalPathLength(task, w); length != want {
				t.Fatalf("%s: length %v, want %v", where, length, want)
			}
			if want := refCriticalPath(task, w); !slices.Equal(path, want) {
				t.Fatalf("%s: path %v, want %v", where, path, want)
			}
			if got := task.CriticalPathLength(w); got != length {
				t.Fatalf("%s: CriticalPathLength %v, want %v", where, got, length)
			}
			if got := task.CriticalPath(w); !slices.Equal(got, path) {
				t.Fatalf("%s: CriticalPath %v, want %v", where, got, path)
			}
		}
	}
}

// TestCriticalPathOfMatchesZeroCost is the exactness oracle of the
// generator's cpr steering: CriticalPathOf over a WCET slice returns
// bit-identically the length and path CriticalPathInto(ZeroCost) returns
// on the same WCETs, with both buffers reused throughout.
func TestCriticalPathOfMatchesZeroCost(t *testing.T) {
	var buf, ref dag.PathBuf
	for i, task := range oracleTasks(t) {
		wcet := make([]float64, len(task.Nodes))
		for j, n := range task.Nodes {
			wcet[j] = n.WCET
		}
		length, path := task.CriticalPathOf(wcet, &buf)
		wantLength, wantPath := task.CriticalPathInto(dag.ZeroCost, &ref)
		if length != wantLength || !slices.Equal(path, wantPath) {
			t.Fatalf("task %d (%s): CriticalPathOf = %v %v, want %v %v", i, task.Name, length, path, wantLength, wantPath)
		}
	}
}
