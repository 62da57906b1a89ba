package dag

import "strconv"

// Fig1Example builds the 7-node example DAG of Fig. 1 / Fig. 6 of the paper:
// a source v1 fanning out to v2, v3, v4 (communication cost 2 each), a middle
// join layer v5, v6, and a sink v7. Computation times and costs follow the
// figure's annotations; α defaults to 0.5 on every edge. The example is used
// by tests, documentation and the quickstart. Like Chain and ForkJoin, it
// returns the task with its rows laid out, ready for Pred and Succ.
func Fig1Example() *Task {
	t := New("fig1", 100, 100)
	const alpha = 0.5
	v1 := t.AddNode("v1", 3, 4096)
	v2 := t.AddNode("v2", 4, 4096)
	v3 := t.AddNode("v3", 2, 6144)
	v4 := t.AddNode("v4", 5, 2048)
	v5 := t.AddNode("v5", 3, 4096)
	v6 := t.AddNode("v6", 4, 4096)
	v7 := t.AddNode("v7", 2, 0)
	t.MustAddEdge(v1, v2, 2, alpha)
	t.MustAddEdge(v1, v3, 2, alpha)
	t.MustAddEdge(v1, v4, 2, alpha)
	t.MustAddEdge(v2, v5, 3, alpha)
	t.MustAddEdge(v3, v5, 1, alpha)
	t.MustAddEdge(v3, v6, 2, alpha)
	t.MustAddEdge(v4, v6, 3, alpha)
	t.MustAddEdge(v5, v7, 2, alpha)
	t.MustAddEdge(v6, v7, 1, alpha)
	t.layOut()
	return t
}

// Chain builds a linear pipeline task with n nodes of the given WCET, edge
// cost and data volume — the degenerate DAG where communication dominates.
func Chain(name string, n int, wcet, cost, alpha float64, data int64) *Task {
	t := New(name, 0, 0)
	prev := NodeID(-1)
	for i := 0; i < n; i++ {
		id := t.AddNode(nodeName(i), wcet, data)
		if prev >= 0 {
			t.MustAddEdge(prev, id, cost, alpha)
		}
		prev = id
	}
	w := t.Volume() + float64(n-1)*cost
	t.Period, t.Deadline = w*2, w*2
	t.layOut()
	return t
}

// ForkJoin builds a source → width parallel branches → sink task.
func ForkJoin(name string, width int, wcet, cost, alpha float64, data int64) *Task {
	t := New(name, 0, 0)
	src := t.AddNode("src", wcet, data)
	sink := NodeID(-1)
	branches := make([]NodeID, width)
	for i := range branches {
		branches[i] = t.AddNode(nodeName(i+1), wcet, data)
		t.MustAddEdge(src, branches[i], cost, alpha)
	}
	sink = t.AddNode("sink", wcet, 0)
	for _, b := range branches {
		t.MustAddEdge(b, sink, cost, alpha)
	}
	w := t.Volume() + 2*cost
	t.Period, t.Deadline = w*2, w*2
	t.layOut()
	return t
}

func nodeName(i int) string { return "v" + strconv.Itoa(i+1) }
