// Package dag implements the paper's parallel task model: a recurrent DAG
// task τ_i = {V_i, E_i, T_i, D_i}. Nodes carry worst-case computation times
// (C_j), produced-data volumes (δ_j) and scheduler-assigned priorities
// (P_j); edges carry communication costs (μ_{j,k}) and ETM speed-up ratios
// (α_{j,k}). Every task has exactly one source and one sink, matching the
// model of He et al. [8] that the paper adopts.
package dag

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node within a single task. IDs are dense indices into
// Task.Nodes, assigned by AddNode in creation order.
type NodeID int

// Node is one vertex v_j of a DAG task: a series of computations that must
// execute sequentially on one core.
type Node struct {
	ID   NodeID
	Name string

	// WCET is C_j, the node's worst-case computation time in abstract
	// time units.
	WCET float64

	// Data is δ_j, the volume in bytes of the dependent data the node
	// produces for its successors (obtained by profiling in the paper).
	Data int64

	// Priority is P_j. Higher values dispatch first. It is written by the
	// schedulers in internal/sched.
	Priority int
}

// Edge is a dependency e_{j,k}: To may only start once From has finished and
// the produced data has been transmitted.
type Edge struct {
	From, To NodeID

	// Cost is μ_{j,k}, the worst-case communication cost of the edge when
	// no L1.5 ways assist the transfer.
	Cost float64

	// Alpha is α_{j,k}, the ETM speed-up ratio of the edge, in (0,1).
	Alpha float64
}

// Task is a recurrent DAG task τ_i.
//
// AddNode and AddEdge append to one node store (nodes are carved out of
// chunked blocks, so *Node pointers stay valid) and one edge list. The
// adjacency is laid out from the edge list once, by Validate or the
// first topological-order query, as CSR rows: predecessor and successor
// IDs plus parallel edge indices into Edges, each row in edge-insertion
// order, together with the topological order. The simulator hot paths
// (longest-path dynamic programs, the dispatch loops) then walk dense
// slices instead of chasing maps or scanning the edge list. A structural
// change (AddNode, AddEdge) makes the layout stale; the next Validate lays
// the rows out again into fresh buffers, so a layout is never written
// after it is built and clones share it.
type Task struct {
	Name     string
	Period   float64 // T_i
	Deadline float64 // D_i, constrained deadline: D_i <= T_i

	Nodes []*Node
	Edges []Edge

	block []Node // the chunk AddNode carves its next node from

	// outHead[v] is the index into Edges of v's latest out-edge (-1:
	// none) and outNext[e] the previous out-edge of Edges[e].From: the
	// chains AddEdge walks for its duplicate check. A clone starts
	// without them; AddEdge rebuilds them from Edges.
	outHead, outNext []int32

	lay *layout // frozen adjacency; stale once Nodes or Edges grow
}

// layout is a task's adjacency frozen into CSR rows, one set per
// direction, plus the topological order. It is immutable once built.
type layout struct {
	nodes, edges int // len(Nodes), len(Edges) it was laid out from
	pred, succ   csr
	topo         []NodeID // Kahn order, lowest ID first
	cyclic       bool     // topo is nil: the edges close a cycle
}

// csr holds one direction of the adjacency: the neighbours of v are
// ids[off[v]:off[v+1]], and edge holds the indices into Edges of the
// connecting edges over the same range.
type csr struct {
	off  []int32
	ids  []NodeID
	edge []int32
}

// row returns v's neighbours, nil for an unknown node.
func (r *csr) row(v NodeID) []NodeID {
	if v < 0 || int(v)+1 >= len(r.off) {
		return nil
	}
	lo, hi := r.off[v], r.off[v+1]
	return r.ids[lo:hi:hi]
}

// edges returns the edge indices aligned with row(v).
func (r *csr) edges(v NodeID) []int32 {
	if v < 0 || int(v)+1 >= len(r.off) {
		return nil
	}
	lo, hi := r.off[v], r.off[v+1]
	return r.edge[lo:hi:hi]
}

// fill lays es out by a counting sort on each edge's To (in) or From
// (out) endpoint, which keeps every row in edge order. cur is scratch of
// one int32 per node.
func (r *csr) fill(es []Edge, in bool, cur []int32) {
	ends := func(e Edge) (NodeID, NodeID) {
		if in {
			return e.To, e.From
		}
		return e.From, e.To
	}
	for _, e := range es {
		v, _ := ends(e)
		r.off[v+1]++
	}
	for v := 1; v < len(r.off); v++ {
		r.off[v] += r.off[v-1]
	}
	copy(cur, r.off)
	for i, e := range es {
		v, w := ends(e)
		r.ids[cur[v]], r.edge[cur[v]] = w, int32(i)
		cur[v]++
	}
}

// New returns an empty task with the given name, period and deadline.
func New(name string, period, deadline float64) *Task {
	return &Task{Name: name, Period: period, Deadline: deadline}
}

// AddNode appends a node and returns its ID.
func (t *Task) AddNode(name string, wcet float64, data int64) NodeID {
	id := NodeID(len(t.Nodes))
	if len(t.block) == cap(t.block) {
		t.block = make([]Node, 0, max(8, len(t.Nodes)))
	}
	t.block = append(t.block, Node{ID: id, Name: name, WCET: wcet, Data: data})
	t.Nodes = append(t.Nodes, &t.block[len(t.block)-1])
	return id
}

// AddEdge adds a dependency edge with communication cost and ETM ratio.
// Adding an edge between unknown nodes or a duplicate edge returns an error.
func (t *Task) AddEdge(from, to NodeID, cost, alpha float64) error {
	if !t.valid(from) || !t.valid(to) {
		return fmt.Errorf("dag: edge %d->%d references unknown node", from, to)
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on node %d", from)
	}
	t.outChains()
	for e := t.outHead[from]; e >= 0; e = t.outNext[e] {
		if t.Edges[e].To == to {
			return fmt.Errorf("dag: duplicate edge %d->%d", from, to)
		}
	}
	ei := int32(len(t.Edges))
	t.Edges = append(t.Edges, Edge{From: from, To: to, Cost: cost, Alpha: alpha})
	t.outNext = append(t.outNext, t.outHead[from])
	t.outHead[from] = ei
	return nil
}

// outChains brings the out-edge chains up to date with Nodes and Edges.
func (t *Task) outChains() {
	if len(t.outNext) != len(t.Edges) {
		t.outHead, t.outNext = t.outHead[:0], t.outNext[:0]
		for range t.Nodes {
			t.outHead = append(t.outHead, -1)
		}
		for i, e := range t.Edges {
			t.outNext = append(t.outNext, t.outHead[e.From])
			t.outHead[e.From] = int32(i)
		}
	}
	for len(t.outHead) < len(t.Nodes) {
		t.outHead = append(t.outHead, -1)
	}
}

// MustAddEdge is AddEdge for statically-known graphs; it panics on error.
func (t *Task) MustAddEdge(from, to NodeID, cost, alpha float64) {
	if err := t.AddEdge(from, to, cost, alpha); err != nil {
		panic(err)
	}
}

func (t *Task) valid(id NodeID) bool { return id >= 0 && int(id) < len(t.Nodes) }

// Node returns the node with the given ID.
func (t *Task) Node(id NodeID) *Node { return t.Nodes[id] }

// rows returns the laid-out adjacency. The readers below never lay the
// rows out themselves (they run inside allocation-free dispatch loops):
// reading a task whose structure changed since its last Validate is a
// programming error.
func (t *Task) rows() *layout {
	if l := t.fresh(); l != nil {
		return l
	}
	panic("dag: adjacency read before Validate or after a structural change")
}

// fresh returns the layout if it was laid out from the current Nodes and
// Edges, else nil.
func (t *Task) fresh() *layout {
	if l := t.lay; l != nil && l.nodes == len(t.Nodes) && l.edges == len(t.Edges) {
		return l
	}
	return nil
}

// Pred returns pre(v): the predecessors of id, in edge-insertion order.
// The slice is owned by the task; callers must not mutate it.
func (t *Task) Pred(id NodeID) []NodeID { return t.rows().pred.row(id) }

// Succ returns suc(v): the successors of id, in edge-insertion order.
// The slice is owned by the task; callers must not mutate it.
func (t *Task) Succ(id NodeID) []NodeID { return t.rows().succ.row(id) }

// PredEdges returns the indices into Edges of id's incoming edges,
// aligned with Pred(id). The slice is owned by the task; callers must
// not mutate it.
func (t *Task) PredEdges(id NodeID) []int32 { return t.rows().pred.edges(id) }

// SuccEdges returns the indices into Edges of id's outgoing edges,
// aligned with Succ(id). The slice is owned by the task; callers must
// not mutate it.
func (t *Task) SuccEdges(id NodeID) []int32 { return t.rows().succ.edges(id) }

// Edge returns the edge from->to and whether it exists. The lookup scans
// only from's out-edges, so it is O(out-degree), not O(|E|).
func (t *Task) Edge(from, to NodeID) (Edge, bool) {
	out := &t.rows().succ
	for k, s := range out.row(from) {
		if s == to {
			return t.Edges[out.edges(from)[k]], true
		}
	}
	return Edge{}, false
}

// Source returns the unique source node's ID. Call Validate first; Source
// returns -1 if there is not exactly one node without predecessors.
func (t *Task) Source() NodeID { return only(t.rows().pred.off) }

// Sink returns the unique sink node's ID, or -1 (see Source).
func (t *Task) Sink() NodeID { return only(t.rows().succ.off) }

// only returns the one node whose row in off is empty, or -1 if there is
// none or more than one.
func only(off []int32) NodeID {
	id := NodeID(-1)
	for v := 0; v+1 < len(off); v++ {
		if off[v] == off[v+1] {
			if id >= 0 {
				return -1
			}
			id = NodeID(v)
		}
	}
	return id
}

// Volume returns W_i = Σ C_j, the total workload of the task.
func (t *Task) Volume() float64 {
	var w float64
	for _, n := range t.Nodes {
		w += n.WCET
	}
	return w
}

// Utilization returns U_i = W_i / T_i.
func (t *Task) Utilization() float64 {
	if t.Period <= 0 {
		return 0
	}
	return t.Volume() / t.Period
}

// Validate checks the structural invariants of the task model: at least one
// node, a single source, a single sink, acyclicity, non-negative WCETs and
// costs, α in [0,1), and D_i <= T_i. It lays the adjacency out first, so a
// task that passes can be read by Pred, Succ and the other row readers.
func (t *Task) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("dag %q: no nodes", t.Name)
	}
	if t.Deadline > t.Period {
		return fmt.Errorf("dag %q: deadline %g exceeds period %g", t.Name, t.Deadline, t.Period)
	}
	l := t.layOut()
	if t.Source() < 0 {
		return fmt.Errorf("dag %q: must have exactly one source node", t.Name)
	}
	if t.Sink() < 0 {
		return fmt.Errorf("dag %q: must have exactly one sink node", t.Name)
	}
	for _, n := range t.Nodes {
		if n.WCET < 0 {
			return fmt.Errorf("dag %q: node %d has negative WCET", t.Name, n.ID)
		}
		if n.Data < 0 {
			return fmt.Errorf("dag %q: node %d has negative data volume", t.Name, n.ID)
		}
	}
	for _, e := range t.Edges {
		if e.Cost < 0 {
			return fmt.Errorf("dag %q: edge %d->%d has negative cost", t.Name, e.From, e.To)
		}
		if e.Alpha < 0 || e.Alpha >= 1 {
			return fmt.Errorf("dag %q: edge %d->%d has alpha %g outside [0,1)", t.Name, e.From, e.To, e.Alpha)
		}
	}
	if l.cyclic {
		return t.errCycle()
	}
	return nil
}

func (t *Task) errCycle() error { return fmt.Errorf("dag %q: cycle detected", t.Name) }

// TopoOrder returns a topological order of the node IDs (Kahn's algorithm,
// lowest-ID-first for determinism) or an error if the graph has a cycle.
// The order is computed once per layout; the returned slice is a copy the
// caller may keep.
func (t *Task) TopoOrder() ([]NodeID, error) {
	order, err := t.topoOrder()
	if err != nil {
		return nil, err
	}
	return append([]NodeID(nil), order...), nil
}

// topoOrder returns the topological order of the current layout, laying
// the rows out first if they are stale. The slice is owned by the layout.
func (t *Task) topoOrder() ([]NodeID, error) {
	l := t.layOut()
	if l.cyclic {
		return nil, t.errCycle()
	}
	return l.topo, nil
}

// layOut returns the task's layout, building a fresh one if Nodes or
// Edges grew since the last.
func (t *Task) layOut() *layout {
	if l := t.fresh(); l != nil {
		return l
	}
	n, m := len(t.Nodes), len(t.Edges)
	// One int32 buffer holds both offset arrays, both edge-index arrays
	// and one int32 of scratch per node; one NodeID buffer holds both ID
	// arrays, the topological order and Kahn's ready heap.
	ints := make([]int32, 2*(n+1)+2*m+n)
	ids := make([]NodeID, 2*m+2*n)
	l := &layout{nodes: n, edges: m,
		pred: csr{off: ints[:n+1], edge: ints[n+1 : n+1+m], ids: ids[:m]},
		succ: csr{off: ints[n+1+m : 2*n+2+m], edge: ints[2*n+2+m : 2*n+2+2*m], ids: ids[m : 2*m]},
		topo: ids[2*m : 2*m : 2*m+n]}
	cur := ints[2*n+2+2*m:]
	l.pred.fill(t.Edges, true, cur)
	l.succ.fill(t.Edges, false, cur)

	// Kahn's algorithm; cur becomes the in-degree countdown.
	indeg := cur
	ready := idHeap(ids[2*m+n : 2*m+n : 2*m+2*n])
	for v := 0; v < n; v++ {
		indeg[v] = l.pred.off[v+1] - l.pred.off[v]
		if indeg[v] == 0 {
			ready.push(NodeID(v))
		}
	}
	for len(ready) > 0 {
		id := ready.pop()
		l.topo = append(l.topo, id)
		for _, s := range l.succ.row(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(l.topo) != n {
		l.topo, l.cyclic = nil, true
	}
	t.lay = l
	return l
}

// idHeap is a binary min-heap of node IDs: the ready set of Kahn's
// algorithm, popping the lowest ID first.
type idHeap []NodeID

func (h *idHeap) push(id NodeID) {
	*h = append(*h, id)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l] < old[small] {
			small = l
		}
		if r < n && old[r] < old[small] {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// EdgeWeight maps an edge to the communication cost used for path-length
// computations. The plain task model uses Edge.Cost; the co-design scheduler
// substitutes the ETM-reduced cost. Weights are non-negative.
type EdgeWeight func(e Edge) float64

// RawCost is the EdgeWeight of the unassisted system: the full μ_{j,k}.
func RawCost(e Edge) float64 { return e.Cost }

// ZeroCost ignores communication entirely (computation-only paths), used by
// the workload generator to steer the critical-path ratio cpr, which the
// paper defines over computation workload.
func ZeroCost(Edge) float64 { return 0 }

// PathBuf holds the scratch arrays of the longest-path dynamic program so
// callers that re-run it (the generator's cpr steering runs it once per
// iteration) can reuse one allocation across runs.
type PathBuf struct {
	weight, head, tail []float64
	from, path         []NodeID
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// HeadTail runs the longest-path dynamic program with node WCETs and the
// given edge weights: head[j] is the length of the longest path from the
// source up to and including v_j, tail[j] that of the longest path from
// v_j (exclusive) to the sink. The forward pass also records, per node,
// the first predecessor its head came through (buf's path links). Both
// slices alias buf and are overwritten by the next call. The task must be
// acyclic (Validate).
func (t *Task) HeadTail(w EdgeWeight, buf *PathBuf) (head, tail []float64) {
	weight := grow(buf.weight, len(t.Edges))
	for i, e := range t.Edges {
		weight[i] = w(e)
	}
	buf.weight = weight
	return t.HeadTailOf(weight, buf)
}

// HeadTailOf is HeadTail with the edge weights given per edge: weight[i]
// is the weight of Edges[i].
func (t *Task) HeadTailOf(weight []float64, buf *PathBuf) (head, tail []float64) {
	order, err := t.topoOrder()
	if err != nil {
		panic(err) // callers validate first; a cycle is a programming error
	}
	l := t.lay
	n := len(t.Nodes)
	head, from := grow(buf.head, n), grow(buf.from, n)
	for _, id := range order {
		// The link is the first predecessor with the longest head plus
		// edge weight.
		best, bestFrom := 0.0, NodeID(-1)
		pe := l.pred.edges(id)
		for k, p := range l.pred.row(id) {
			if c := head[p] + weight[pe[k]]; c > best || bestFrom < 0 {
				best, bestFrom = c, p
			}
		}
		head[id] = best + t.Nodes[id].WCET
		from[id] = bestFrom
	}
	tail = grow(buf.tail, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		se := l.succ.edges(id)
		for k, s := range l.succ.row(id) {
			if c := weight[se[k]] + t.Nodes[s].WCET + tail[s]; c > best {
				best = c
			}
		}
		tail[id] = best
	}
	buf.head, buf.tail, buf.from = head, tail, from
	return head, tail
}

// LongestThrough computes λ_j for every node: the length of the longest
// source-to-sink path that passes through v_j, with node WCETs and the given
// edge weights. The task must be acyclic (Validate).
func (t *Task) LongestThrough(w EdgeWeight) []float64 {
	head, tail := t.HeadTail(w, &PathBuf{})
	lambda := make([]float64, len(head))
	for id := range lambda {
		lambda[id] = head[id] + tail[id]
	}
	return lambda
}

// CriticalPathInto returns, from one run of HeadTail, the length of the
// longest source-to-sink path (the largest λ_j) and one such path in
// execution order. The path aliases buf and is overwritten by the next
// call.
func (t *Task) CriticalPathInto(w EdgeWeight, buf *PathBuf) (float64, []NodeID) {
	head, tail := t.HeadTail(w, buf)
	return t.longestPath(head, tail, buf)
}

// CriticalPathOf is CriticalPathInto(ZeroCost, buf) with wcet[j] standing
// in for Nodes[j].WCET: the computation-only path the workload generator
// steers its cpr on, over a WCET slice it writes back once. Heads are
// never negative, so dropping the zero edge weights leaves every sum, and
// so the result, bit-identical to CriticalPathInto(ZeroCost, buf) on the
// same WCETs.
func (t *Task) CriticalPathOf(wcet []float64, buf *PathBuf) (float64, []NodeID) {
	order, err := t.topoOrder()
	if err != nil {
		panic(err) // callers validate first; a cycle is a programming error
	}
	l := t.lay
	n := len(t.Nodes)
	head, from := grow(buf.head, n), grow(buf.from, n)
	off, ids := l.pred.off, l.pred.ids
	for _, id := range order {
		best, bestFrom := 0.0, NodeID(-1)
		for _, p := range ids[off[id]:off[id+1]] {
			if c := head[p]; c > best || bestFrom < 0 {
				best, bestFrom = c, p
			}
		}
		head[id] = best + wcet[id]
		from[id] = bestFrom
	}
	tail := grow(buf.tail, n)
	off, ids = l.succ.off, l.succ.ids
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, s := range ids[off[id]:off[id+1]] {
			if c := wcet[s] + tail[s]; c > best {
				best = c
			}
		}
		tail[id] = best
	}
	buf.head, buf.tail, buf.from = head, tail, from
	return t.longestPath(head, tail, buf)
}

// longestPath returns the largest head+tail and the path of buf's links
// that ends at the sink with the longest head.
func (t *Task) longestPath(head, tail []float64, buf *PathBuf) (float64, []NodeID) {
	var length float64
	for id := range head {
		if l := head[id] + tail[id]; l > length {
			length = l
		}
	}
	// The path ends at the sink with the longest head (the sink itself
	// for a single-sink task, but tolerate multi-sink graphs too).
	l := t.lay
	n := len(head)
	sink := func(id int) bool { return l.succ.off[id] == l.succ.off[id+1] }
	end := 0
	for id := 1; id < n; id++ {
		if sink(id) && head[id] > head[end] {
			end = id
		}
	}
	if !sink(end) { // no sink found (shouldn't happen post-Validate)
		for id := 0; id < n; id++ {
			if head[id] > head[end] {
				end = id
			}
		}
	}
	path := buf.path[:0]
	for id := NodeID(end); id >= 0; id = buf.from[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	buf.path = path
	return length, path
}

// CriticalPathLength returns the length of the longest source-to-sink path
// under the given edge weights (the makespan lower bound on infinitely many
// cores).
func (t *Task) CriticalPathLength(w EdgeWeight) float64 {
	length, _ := t.CriticalPathInto(w, &PathBuf{})
	return length
}

// CriticalPath returns one longest source-to-sink path (node IDs in
// execution order) under the given edge weights.
func (t *Task) CriticalPath(w EdgeWeight) []NodeID {
	_, path := t.CriticalPathInto(w, &PathBuf{})
	return path
}

// Clone returns a deep copy of the task's nodes and edges. The nodes share
// one backing block. The clone shares the original's laid-out rows and
// topological order: a layout is never written after it is built, and a
// structural change on either side lays that side out anew.
func (t *Task) Clone() *Task {
	c := New(t.Name, t.Period, t.Deadline)
	c.block = make([]Node, len(t.Nodes))
	c.Nodes = make([]*Node, len(t.Nodes))
	for i, n := range t.Nodes {
		c.block[i] = *n
		c.Nodes[i] = &c.block[i]
	}
	c.Edges = append([]Edge(nil), t.Edges...)
	c.lay = t.lay
	return c
}

// DOT renders the task in Graphviz dot syntax, labelling nodes with
// "name (C_j)" and edges with μ_{j,k}, mirroring Fig. 1 of the paper.
func (t *Task) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", t.Name)
	for _, n := range t.Nodes {
		fmt.Fprintf(&sb, "  n%d [label=\"%s (%.4g)\"];\n", n.ID, n.Name, n.WCET)
	}
	for _, e := range t.Edges {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%.4g\"];\n", e.From, e.To, e.Cost)
	}
	sb.WriteString("}\n")
	return sb.String()
}
