package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	c := task.AddNode("c", 1, 0)
	check := func(from, to NodeID, want string) {
		t.Helper()
		err := task.AddEdge(from, to, 1, 0.5)
		if err == nil || err.Error() != want {
			t.Errorf("AddEdge(%d, %d) = %v, want %q", from, to, err, want)
		}
	}
	check(a, b, "dag: duplicate edge 0->1")
	check(a, a, "dag: self-loop on node 0")
	check(a, 99, "dag: edge 0->99 references unknown node")
	check(-1, b, "dag: edge -1->1 references unknown node")
	// Duplicates are caught against the laid-out rows, against edges
	// added since the layout, and on a clone.
	if err := task.AddEdge(b, c, 1, 0.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := task.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if err := task.AddEdge(a, c, 1, 0.5); err != nil {
		t.Fatalf("AddEdge after layout: %v", err)
	}
	check(b, c, "dag: duplicate edge 1->2")
	check(a, c, "dag: duplicate edge 0->2")
	cl := task.Clone()
	if err := cl.AddEdge(a, c, 1, 0.5); err == nil || err.Error() != "dag: duplicate edge 0->2" {
		t.Errorf("clone AddEdge(0, 2) = %v, want the duplicate error", err)
	}
	if len(task.Edges) != 3 || len(cl.Edges) != 3 {
		t.Errorf("rejected edges were added: %d, %d edges, want 3", len(task.Edges), len(cl.Edges))
	}
}

// TestRowsFollowInsertionOrder checks that every laid-out row lists its
// neighbours, and the aligned edge indices, in edge-insertion order, even
// when edges are added out of node order, and that the task's accessors
// and its View read the same rows, in-degrees, source and sink. It runs
// on one hand-built graph and on generated layered DAGs.
func TestRowsFollowInsertionOrder(t *testing.T) {
	task := New("rows", 10, 10)
	for i := 0; i < 6; i++ {
		task.AddNode(nodeName(i), 1, 0)
	}
	edges := [][2]NodeID{{0, 3}, {0, 1}, {2, 5}, {1, 5}, {0, 2}, {3, 5}, {1, 4}, {4, 5}, {3, 4}}
	for _, e := range edges {
		task.MustAddEdge(e[0], e[1], 1, 0.5)
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	checkRows(t, task)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		task := randomLayeredTask(r)
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
		checkRows(t, task)
	}
}

// checkRows compares every row of a laid-out task, read through the task
// and through its View, with the rows derived from its edge list.
func checkRows(t *testing.T, task *Task) {
	t.Helper()
	g := task.View()
	src, sink := NodeID(-1), NodeID(-1)
	var sources, sinks int
	for v := NodeID(0); int(v) < len(task.Nodes); v++ {
		var wantPred, wantSucc []NodeID
		var wantPE, wantSE []int32
		for i, e := range task.Edges {
			if e.To == v {
				wantPred, wantPE = append(wantPred, e.From), append(wantPE, int32(i))
			}
			if e.From == v {
				wantSucc, wantSE = append(wantSucc, e.To), append(wantSE, int32(i))
			}
		}
		if len(wantPred) == 0 {
			src, sources = v, sources+1
		}
		if len(wantSucc) == 0 {
			sink, sinks = v, sinks+1
		}
		// Sprint prints nil and empty rows alike.
		for _, c := range []struct {
			name             string
			task, view, want any
		}{
			{"Pred", task.Pred(v), g.Pred(v), wantPred},
			{"PredEdges", task.PredEdges(v), g.PredEdges(v), wantPE},
			{"Succ", task.Succ(v), g.Succ(v), wantSucc},
			{"SuccEdges", task.SuccEdges(v), g.SuccEdges(v), wantSE},
			{"InDegree", len(task.Pred(v)), g.InDegree(v), len(wantPred)},
		} {
			if want := fmt.Sprint(c.want); fmt.Sprint(c.task) != want || fmt.Sprint(c.view) != want {
				t.Errorf("%s(%d) = %v, View().%[1]s = %v, want %v", c.name, v, c.task, c.view, want)
			}
		}
	}
	if sources != 1 {
		src = -1
	}
	if sinks != 1 {
		sink = -1
	}
	if task.Source() != src || g.Source() != src {
		t.Errorf("Source = %d, View().Source = %d, want %d", task.Source(), g.Source(), src)
	}
	if task.Sink() != sink || g.Sink() != sink {
		t.Errorf("Sink = %d, View().Sink = %d, want %d", task.Sink(), g.Sink(), sink)
	}
}

// TestMutationRelaysRows checks that a structural change after a read
// makes the rows stale (a read panics until the next Validate) and that
// the next layout goes into fresh buffers, leaving rows read earlier as
// they were.
func TestMutationRelaysRows(t *testing.T) {
	task := Fig1Example()
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	before := task.Succ(1)
	beforeTopo, _ := task.TopoOrder()
	view := task.View()
	task.MustAddEdge(1, 5, 1, 0.5)
	for name, read := range map[string]func(){
		"Succ": func() { task.Succ(1) },
		"View": func() { task.View() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a stale layout did not panic", name)
				}
			}()
			read()
		}()
	}
	if got := view.Succ(1); !slices.Equal(got, []NodeID{4}) {
		t.Errorf("view taken before the mutation reads Succ(1) = %v, want [4]", got)
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := task.Succ(1); !slices.Equal(got, []NodeID{4, 5}) {
		t.Errorf("Succ(1) after re-layout = %v, want [4 5]", got)
	}
	if got := task.Pred(5); !slices.Equal(got, []NodeID{2, 3, 1}) {
		t.Errorf("Pred(5) after re-layout = %v, want [2 3 1]", got)
	}
	if !slices.Equal(before, []NodeID{4}) {
		t.Errorf("row read before the mutation changed to %v", before)
	}
	v := task.AddNode("extra", 1, 0)
	task.MustAddEdge(6, v, 1, 0.5)
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := task.Sink(); got != v {
		t.Errorf("Sink after re-layout = %d, want %d", got, v)
	}
	if order, _ := task.TopoOrder(); len(order) != 8 || len(beforeTopo) != 7 {
		t.Errorf("topological orders: %v after, %v before", order, beforeTopo)
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
	// Bypass AddEdge to build a cycle the cheap way: the rows are laid
	// out from the edge list.
	task.Edges = append(task.Edges, Edge{From: c, To: a})
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

	// A clone shares the original's frozen rows. AddEdge on either side
	// of a clone pair must leave the other side's adjacency as it was,
	// and give the mutated side, once validated, the adjacency of an
	// unshared task with the same edges.
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
			if err := tk.Validate(); err != nil {
				t.Fatalf("mutating clone: %v: %v", mutateClone, err)
			}
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
		if _, ok := kept.Edge(1, 5); ok {
			t.Errorf("mutating clone: %v: other task gained edge 1->5", mutateClone)
		}
		if err := kept.Validate(); err != nil {
			t.Errorf("mutating clone: %v: other task invalid: %v", mutateClone, err)
		}
		for _, e := range [][2]NodeID{{0, 1}, {3, 4}} {
			if err := mutated.AddEdge(e[0], e[1], 1, 0.5); err == nil {
				t.Errorf("mutating clone: %v: duplicate %d->%d accepted", mutateClone, e[0], e[1])
			}
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
	// The rows are laid out only once the task is built, so construction
	// tracks edges and out-degrees itself.
	edges := map[[2]NodeID]bool{}
	outdeg := map[NodeID]int{}
	add := func(from, to NodeID, cost, alpha float64) {
		t.MustAddEdge(from, to, cost, alpha)
		edges[[2]NodeID{from, to}] = true
		outdeg[from]++
	}
	src := t.AddNode("src", 1+r.Float64()*5, 1024)
	prev := []NodeID{src}
	layers := 2 + r.Intn(4)
	for l := 0; l < layers; l++ {
		width := 1 + r.Intn(4)
		cur := make([]NodeID, width)
		for i := range cur {
			cur[i] = t.AddNode("n", 1+r.Float64()*5, 1024)
			// Guarantee at least one predecessor.
			add(prev[r.Intn(len(prev))], cur[i], 1+r.Float64()*3, r.Float64()*0.7)
		}
		// Random extra edges.
		for _, p := range prev {
			for _, c := range cur {
				if !edges[[2]NodeID{p, c}] && r.Float64() < 0.2 {
					add(p, c, 1+r.Float64()*3, r.Float64()*0.7)
				}
			}
		}
		prev = cur
	}
	sink := t.AddNode("sink", 1, 0)
	// Connect every current sink-like node to the single sink.
	for _, n := range t.Nodes {
		if n.ID != sink && outdeg[n.ID] == 0 {
			add(n.ID, sink, 1, 0.5)
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
