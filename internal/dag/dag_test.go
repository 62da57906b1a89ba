package dag

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFig1ExampleValid(t *testing.T) {
	task := Fig1Example()
	if err := task.Validate(); err != nil {
		t.Fatalf("Fig1Example invalid: %v", err)
	}
	if got := task.Source(); got != 0 {
		t.Errorf("Source = %d, want 0", got)
	}
	if got := task.Sink(); got != 6 {
		t.Errorf("Sink = %d, want 6 (v7)", got)
	}
	if n := len(task.Nodes); n != 7 {
		t.Errorf("nodes = %d, want 7", n)
	}
	if n := len(task.Edges); n != 9 {
		t.Errorf("edges = %d, want 9", n)
	}
}

func TestPredSucc(t *testing.T) {
	task := Fig1Example()
	// v1 (ID 0) fans out to v2, v3, v4 (IDs 1,2,3).
	succ := task.Succ(0)
	if len(succ) != 3 || succ[0] != 1 || succ[1] != 2 || succ[2] != 3 {
		t.Errorf("Succ(v1) = %v", succ)
	}
	// v7 (ID 6) joins v5, v6.
	pred := task.Pred(6)
	if len(pred) != 2 || pred[0] != 4 || pred[1] != 5 {
		t.Errorf("Pred(v7) = %v", pred)
	}
	if len(task.Pred(0)) != 0 {
		t.Error("source should have no predecessors")
	}
	if len(task.Succ(6)) != 0 {
		t.Error("sink should have no successors")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	task := New("t", 10, 10)
	a := task.AddNode("a", 1, 0)
	b := task.AddNode("b", 1, 0)
	if err := task.AddEdge(a, b, 1, 0.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := task.AddEdge(a, b, 1, 0.5); err == nil {
		t.Error("duplicate edge not rejected")
	}
	if err := task.AddEdge(a, a, 1, 0.5); err == nil {
		t.Error("self-loop not rejected")
	}
	if err := task.AddEdge(a, 99, 1, 0.5); err == nil {
		t.Error("unknown node not rejected")
	}
}

func TestValidateRejections(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := New("e", 1, 1).Validate(); err == nil {
			t.Error("empty task validated")
		}
	})
	t.Run("two sources", func(t *testing.T) {
		task := New("t", 10, 10)
		a := task.AddNode("a", 1, 0)
		b := task.AddNode("b", 1, 0)
		c := task.AddNode("c", 1, 0)
		task.MustAddEdge(a, c, 1, 0.5)
		task.MustAddEdge(b, c, 1, 0.5)
		if err := task.Validate(); err == nil {
			t.Error("two-source task validated")
		}
	})
	t.Run("two sinks", func(t *testing.T) {
		task := New("t", 10, 10)
		a := task.AddNode("a", 1, 0)
		b := task.AddNode("b", 1, 0)
		c := task.AddNode("c", 1, 0)
		task.MustAddEdge(a, b, 1, 0.5)
		task.MustAddEdge(a, c, 1, 0.5)
		if err := task.Validate(); err == nil {
			t.Error("two-sink task validated")
		}
	})
	t.Run("deadline beyond period", func(t *testing.T) {
		task := New("t", 10, 20)
		task.AddNode("a", 1, 0)
		if err := task.Validate(); err == nil {
			t.Error("D > T validated")
		}
	})
	t.Run("bad alpha", func(t *testing.T) {
		task := New("t", 10, 10)
		a := task.AddNode("a", 1, 0)
		b := task.AddNode("b", 1, 0)
		task.MustAddEdge(a, b, 1, 1.0) // α must be < 1
		if err := task.Validate(); err == nil {
			t.Error("alpha = 1.0 validated")
		}
	})
	t.Run("negative WCET", func(t *testing.T) {
		task := New("t", 10, 10)
		task.AddNode("a", -1, 0)
		if err := task.Validate(); err == nil {
			t.Error("negative WCET validated")
		}
	})
}

func TestTopoOrder(t *testing.T) {
	task := Fig1Example()
	order, err := task.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range task.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	task := New("cyc", 10, 10)
	a := task.AddNode("a", 1, 0)
	b := task.AddNode("b", 1, 0)
	c := task.AddNode("c", 1, 0)
	task.MustAddEdge(a, b, 1, 0.5)
	task.MustAddEdge(b, c, 1, 0.5)
	// Bypass AddEdge's adjacency to build a cycle the cheap way.
	task.Edges = append(task.Edges, Edge{From: c, To: a})
	task.preds[a] = append(task.preds[a], c)
	task.succs[c] = append(task.succs[c], a)
	if _, err := task.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestVolumeAndUtilization(t *testing.T) {
	task := Fig1Example()
	want := 3.0 + 4 + 2 + 5 + 3 + 4 + 2
	if got := task.Volume(); got != want {
		t.Errorf("Volume = %g, want %g", got, want)
	}
	if got := task.Utilization(); got != want/100 {
		t.Errorf("Utilization = %g, want %g", got, want/100)
	}
}

func TestLongestThroughChain(t *testing.T) {
	// On a chain every node lies on the single path, so all λ_j are equal
	// to total WCET + total comm cost.
	task := Chain("c", 4, 2, 3, 0.5, 1024)
	lambda := task.LongestThrough(RawCost)
	want := 4*2.0 + 3*3.0
	for id, l := range lambda {
		if l != want {
			t.Errorf("λ[%d] = %g, want %g", id, l, want)
		}
	}
	if got := task.CriticalPathLength(RawCost); got != want {
		t.Errorf("CriticalPathLength = %g, want %g", got, want)
	}
	if got := task.CriticalPathLength(ZeroCost); got != 8 {
		t.Errorf("computation-only critical path = %g, want 8", got)
	}
}

func TestLongestThroughFig1(t *testing.T) {
	task := Fig1Example()
	lambda := task.LongestThrough(RawCost)
	// Longest path: v1 -(2)- v4 -(3)- v6 -(1)- v7 = 3+2+5+3+4+1+2 = 20.
	if lambda[0] != 20 {
		t.Errorf("λ[v1] = %g, want 20", lambda[0])
	}
	if lambda[3] != 20 { // v4 on the critical path
		t.Errorf("λ[v4] = %g, want 20", lambda[3])
	}
	// v2's longest path: v1 -2- v2 -3- v5 -2- v7 = 3+2+4+3+3+2+2 = 19.
	if lambda[1] != 19 {
		t.Errorf("λ[v2] = %g, want 19", lambda[1])
	}
	path := task.CriticalPath(RawCost)
	want := []NodeID{0, 3, 5, 6}
	if len(path) != len(want) {
		t.Fatalf("CriticalPath = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("CriticalPath = %v, want %v", path, want)
		}
	}
}

func TestClone(t *testing.T) {
	task := Fig1Example()
	c := task.Clone()
	c.Nodes[0].WCET = 99
	c.Nodes[0].Priority = 7
	if task.Nodes[0].WCET == 99 || task.Nodes[0].Priority == 7 {
		t.Error("Clone shares node storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
	if c.Volume() == task.Volume() {
		t.Error("clone WCET edit should change volume")
	}

	// AddEdge on either side of a clone pair must leave the other side's
	// adjacency as it was, and give the mutated side the adjacency of an
	// unshared task with the same edges. v2->v6 and v4->v5 grow interior
	// rows of every adjacency buffer, where an uncapped row of a
	// flat-buffer clone would append into its neighbour's storage.
	for _, mutateClone := range []bool{true, false} {
		orig := Fig1Example()
		cl := orig.Clone()
		mutated, kept := cl, orig
		if !mutateClone {
			mutated, kept = orig, cl
		}
		want := adjacency(kept)
		ref := Fig1Example()
		for _, tk := range []*Task{mutated, ref} {
			tk.MustAddEdge(1, 5, 1, 0.5)
			tk.MustAddEdge(3, 4, 1, 0.5)
		}
		if got := adjacency(kept); !reflect.DeepEqual(got, want) {
			t.Errorf("AddEdge (mutating clone: %v) changed the other task's adjacency:\ngot  %v\nwant %v",
				mutateClone, got, want)
		}
		if got, want := adjacency(mutated), adjacency(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("AddEdge (mutating clone: %v) corrupted the mutated task's adjacency:\ngot  %v\nwant %v",
				mutateClone, got, want)
		}
		if len(kept.Edges) != 9 {
			t.Errorf("AddEdge (mutating clone: %v) changed the other task's edges", mutateClone)
		}
		if _, ok := mutated.Edge(1, 5); !ok {
			t.Errorf("mutating clone: %v: mutated task lost edge 1->5", mutateClone)
		}
		if err := kept.Validate(); err != nil {
			t.Errorf("mutating clone: %v: other task invalid: %v", mutateClone, err)
		}
	}
}

// adjacency snapshots every adjacency row of a task.
func adjacency(t *Task) [4][][]int {
	var rows [4][][]int
	for id := range t.Nodes {
		v := NodeID(id)
		var pred, succ, pe, se []int
		for _, p := range t.Pred(v) {
			pred = append(pred, int(p))
		}
		for _, s := range t.Succ(v) {
			succ = append(succ, int(s))
		}
		for _, e := range t.PredEdges(v) {
			pe = append(pe, int(e))
		}
		for _, e := range t.SuccEdges(v) {
			se = append(se, int(e))
		}
		rows[0] = append(rows[0], pred)
		rows[1] = append(rows[1], succ)
		rows[2] = append(rows[2], pe)
		rows[3] = append(rows[3], se)
	}
	return rows
}

func TestDOT(t *testing.T) {
	s := Fig1Example().DOT()
	for _, want := range []string{"digraph", "n0 -> n1", "v7", "rankdir"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}

func TestForkJoinShape(t *testing.T) {
	task := ForkJoin("fj", 5, 2, 1, 0.5, 2048)
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(task.Nodes) != 7 {
		t.Errorf("nodes = %d, want 7", len(task.Nodes))
	}
	if got := task.CriticalPathLength(RawCost); got != 2+1+2+1+2 {
		t.Errorf("critical path = %g, want 8", got)
	}
}

// randomLayeredTask builds a small random layered DAG with a single source
// and sink, the same family the workload generator produces.
func randomLayeredTask(r *rand.Rand) *Task {
	t := New("rand", 1000, 1000)
	src := t.AddNode("src", 1+r.Float64()*5, 1024)
	prev := []NodeID{src}
	layers := 2 + r.Intn(4)
	for l := 0; l < layers; l++ {
		width := 1 + r.Intn(4)
		cur := make([]NodeID, width)
		for i := range cur {
			cur[i] = t.AddNode("n", 1+r.Float64()*5, 1024)
			// Guarantee at least one predecessor.
			t.MustAddEdge(prev[r.Intn(len(prev))], cur[i], 1+r.Float64()*3, r.Float64()*0.7)
		}
		// Random extra edges.
		for _, p := range prev {
			for _, c := range cur {
				if _, ok := t.Edge(p, c); !ok && r.Float64() < 0.2 {
					t.MustAddEdge(p, c, 1+r.Float64()*3, r.Float64()*0.7)
				}
			}
		}
		prev = cur
	}
	sink := t.AddNode("sink", 1, 0)
	// Connect every current sink-like node to the single sink.
	for _, n := range t.Nodes {
		if n.ID != sink && len(t.Succ(n.ID)) == 0 {
			t.MustAddEdge(n.ID, sink, 1, 0.5)
		}
	}
	return t
}

// Property: λ_j is bounded below by the node's own WCET and above by the
// critical path length, and the critical path length equals max λ.
func TestQuickLambdaBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomLayeredTask(r)
		if task.Validate() != nil {
			return false
		}
		lambda := task.LongestThrough(RawCost)
		cp := task.CriticalPathLength(RawCost)
		var max float64
		for id, l := range lambda {
			if l < task.Nodes[id].WCET || l > cp+1e-9 {
				return false
			}
			if l > max {
				max = l
			}
		}
		return max == cp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the critical path returned by CriticalPath is a real path whose
// length equals CriticalPathLength.
func TestQuickCriticalPathConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomLayeredTask(r)
		path := task.CriticalPath(RawCost)
		if len(path) == 0 {
			return false
		}
		var length float64
		for i, id := range path {
			length += task.Nodes[id].WCET
			if i > 0 {
				e, ok := task.Edge(path[i-1], id)
				if !ok {
					return false // not a path
				}
				length += e.Cost
			}
		}
		cp := task.CriticalPathLength(RawCost)
		return length > cp-1e-9 && length < cp+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: reducing edge weights never increases any λ_j (monotonicity the
// scheduler relies on when L1.5 ways shrink communication costs).
func TestQuickLambdaMonotone(t *testing.T) {
	half := func(e Edge) float64 { return e.Cost / 2 }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomLayeredTask(r)
		full := task.LongestThrough(RawCost)
		reduced := task.LongestThrough(half)
		for i := range full {
			if reduced[i] > full[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
