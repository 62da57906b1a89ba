// Package dag implements the paper's parallel task model: a recurrent DAG
// task τ_i = {V_i, E_i, T_i, D_i}. Nodes carry worst-case computation times
// (C_j), produced-data volumes (δ_j) and scheduler-assigned priorities
// (P_j); edges carry communication costs (μ_{j,k}) and ETM speed-up ratios
// (α_{j,k}). Every task has exactly one source and one sink, matching the
// model of He et al. [8] that the paper adopts.
package dag

import (
	"fmt"
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
// The adjacency is kept flat, struct-of-arrays style: per-node
// predecessor/successor ID lists plus parallel edge-index lists into
// Edges, so the simulator hot paths (longest-path dynamic programs, the
// dispatch loops) walk dense slices instead of chasing maps or scanning
// the edge list. The topological order is computed once and cached; the
// mutating entry points (AddNode, AddEdge) invalidate it.
type Task struct {
	Name     string
	Period   float64 // T_i
	Deadline float64 // D_i, constrained deadline: D_i <= T_i

	Nodes []*Node
	Edges []Edge

	preds [][]NodeID // indexed by NodeID
	succs [][]NodeID

	// predEdge[v][k] is the index into Edges of the edge preds[v][k]->v;
	// succEdge[v][k] of v->succs[v][k]. Kept aligned by AddEdge.
	predEdge [][]int32
	succEdge [][]int32

	topo []NodeID // cached topological order; nil until topoOrder
}

// New returns an empty task with the given name, period and deadline.
func New(name string, period, deadline float64) *Task {
	return &Task{Name: name, Period: period, Deadline: deadline}
}

// AddNode appends a node and returns its ID.
func (t *Task) AddNode(name string, wcet float64, data int64) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, &Node{ID: id, Name: name, WCET: wcet, Data: data})
	t.preds = append(t.preds, nil)
	t.succs = append(t.succs, nil)
	t.predEdge = append(t.predEdge, nil)
	t.succEdge = append(t.succEdge, nil)
	t.topo = nil
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
	for _, s := range t.succs[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %d->%d", from, to)
		}
	}
	ei := int32(len(t.Edges))
	t.Edges = append(t.Edges, Edge{From: from, To: to, Cost: cost, Alpha: alpha})
	t.succs[from] = append(t.succs[from], to)
	t.succEdge[from] = append(t.succEdge[from], ei)
	t.preds[to] = append(t.preds[to], from)
	t.predEdge[to] = append(t.predEdge[to], ei)
	t.topo = nil
	return nil
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

// Pred returns pre(v): the predecessors of id, in edge-insertion order.
func (t *Task) Pred(id NodeID) []NodeID {
	if !t.valid(id) {
		return nil
	}
	return t.preds[id]
}

// Succ returns suc(v): the successors of id, in edge-insertion order.
func (t *Task) Succ(id NodeID) []NodeID {
	if !t.valid(id) {
		return nil
	}
	return t.succs[id]
}

// Edge returns the edge from->to and whether it exists. The lookup scans
// only from's out-edges, so it is O(out-degree), not O(|E|).
func (t *Task) Edge(from, to NodeID) (Edge, bool) {
	if !t.valid(from) {
		return Edge{}, false
	}
	for k, s := range t.succs[from] {
		if s == to {
			return t.Edges[t.succEdge[from][k]], true
		}
	}
	return Edge{}, false
}

// PredEdges returns the indices into Edges of id's incoming edges,
// aligned with Pred(id). The slice is owned by the task; callers must
// not mutate it.
func (t *Task) PredEdges(id NodeID) []int32 {
	if !t.valid(id) {
		return nil
	}
	return t.predEdge[id]
}

// SuccEdges returns the indices into Edges of id's outgoing edges,
// aligned with Succ(id). The slice is owned by the task; callers must
// not mutate it.
func (t *Task) SuccEdges(id NodeID) []int32 {
	if !t.valid(id) {
		return nil
	}
	return t.succEdge[id]
}

// Source returns the unique source node's ID. Call Validate first; Source
// returns -1 if there is not exactly one node without predecessors.
func (t *Task) Source() NodeID {
	src := NodeID(-1)
	for _, n := range t.Nodes {
		if len(t.preds[n.ID]) == 0 {
			if src >= 0 {
				return -1
			}
			src = n.ID
		}
	}
	return src
}

// Sink returns the unique sink node's ID, or -1 (see Source).
func (t *Task) Sink() NodeID {
	sink := NodeID(-1)
	for _, n := range t.Nodes {
		if len(t.succs[n.ID]) == 0 {
			if sink >= 0 {
				return -1
			}
			sink = n.ID
		}
	}
	return sink
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
// costs, α in [0,1), and D_i <= T_i.
func (t *Task) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("dag %q: no nodes", t.Name)
	}
	if t.Deadline > t.Period {
		return fmt.Errorf("dag %q: deadline %g exceeds period %g", t.Name, t.Deadline, t.Period)
	}
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
	if _, err := t.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order of the node IDs (Kahn's algorithm,
// lowest-ID-first for determinism) or an error if the graph has a cycle.
// The order is computed once and cached until the task's structure changes;
// the returned slice is a copy the caller may keep.
func (t *Task) TopoOrder() ([]NodeID, error) {
	order, err := t.topoOrder()
	if err != nil {
		return nil, err
	}
	return append([]NodeID(nil), order...), nil
}

// topoOrder returns the cached topological order, computing it on first
// use. The returned slice is owned by the task.
func (t *Task) topoOrder() ([]NodeID, error) {
	if t.topo != nil {
		return t.topo, nil
	}
	indeg := make([]int, len(t.Nodes))
	for id := range t.Nodes {
		indeg[id] = len(t.preds[id])
	}
	// ready is a min-heap of node IDs (lowest-ID-first determinism).
	var ready idHeap
	for id := range t.Nodes {
		if indeg[id] == 0 {
			ready.push(NodeID(id))
		}
	}
	order := make([]NodeID, 0, len(t.Nodes))
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range t.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != len(t.Nodes) {
		return nil, fmt.Errorf("dag %q: cycle detected", t.Name)
	}
	t.topo = order
	return order, nil
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
// substitutes the ETM-reduced cost.
type EdgeWeight func(e Edge) float64

// RawCost is the EdgeWeight of the unassisted system: the full μ_{j,k}.
func RawCost(e Edge) float64 { return e.Cost }

// ZeroCost ignores communication entirely (computation-only paths), used by
// the workload generator to steer the critical-path ratio cpr, which the
// paper defines over computation workload.
func ZeroCost(Edge) float64 { return 0 }

// LongestThrough computes λ_j for every node: the length of the longest
// source-to-sink path that passes through v_j, with node WCETs and the given
// edge weights. It is the dynamic program Alg. 1 re-runs after each wave.
// The task must be acyclic (Validate).
func (t *Task) LongestThrough(w EdgeWeight) []float64 {
	return t.LongestThroughInto(w, &PathBuf{})
}

// PathBuf holds the scratch arrays of the longest-path dynamic program so
// callers that re-run it (Alg. 1 recomputes λ after every wave) can reuse
// one allocation across runs.
type PathBuf struct {
	head, tail, lambda []float64
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// LongestThroughInto is LongestThrough with caller-owned scratch. The
// returned slice aliases buf and is overwritten by the next call.
func (t *Task) LongestThroughInto(w EdgeWeight, buf *PathBuf) []float64 {
	order, err := t.topoOrder()
	if err != nil {
		panic(err) // callers validate first; a cycle is a programming error
	}
	n := len(t.Nodes)
	// head[j]: longest path length from the source up to and including v_j.
	head := growFloats(buf.head, n)
	for _, id := range order {
		best := 0.0
		pe := t.predEdge[id]
		for k, p := range t.preds[id] {
			if l := head[p] + w(t.Edges[pe[k]]); l > best {
				best = l
			}
		}
		head[id] = best + t.Nodes[id].WCET
	}
	// tail[j]: longest path length from v_j (exclusive) to the sink.
	tail := growFloats(buf.tail, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		se := t.succEdge[id]
		for k, s := range t.succs[id] {
			if l := w(t.Edges[se[k]]) + t.Nodes[s].WCET + tail[s]; l > best {
				best = l
			}
		}
		tail[id] = best
	}
	lambda := growFloats(buf.lambda, n)
	for id := 0; id < n; id++ {
		lambda[id] = head[id] + tail[id]
	}
	buf.head, buf.tail, buf.lambda = head, tail, lambda
	return lambda
}

// CriticalPathLength returns the length of the longest source-to-sink path
// under the given edge weights (the makespan lower bound on infinitely many
// cores).
func (t *Task) CriticalPathLength(w EdgeWeight) float64 {
	lambda := t.LongestThrough(w)
	var m float64
	for _, l := range lambda {
		if l > m {
			m = l
		}
	}
	return m
}

// CriticalPath returns one longest source-to-sink path (node IDs in
// execution order) under the given edge weights.
func (t *Task) CriticalPath(w EdgeWeight) []NodeID {
	order, err := t.topoOrder()
	if err != nil {
		panic(err)
	}
	n := len(t.Nodes)
	head := make([]float64, n)
	from := make([]NodeID, n)
	for i := range from {
		from[i] = -1
	}
	for _, id := range order {
		best, bestFrom := 0.0, NodeID(-1)
		pe := t.predEdge[id]
		for k, p := range t.preds[id] {
			if l := head[p] + w(t.Edges[pe[k]]); l > best || bestFrom < 0 {
				best, bestFrom = l, p
			}
		}
		head[id] = best + t.Nodes[id].WCET
		from[id] = bestFrom
	}
	// Find the sink-side endpoint with the longest head (the sink itself
	// for a single-sink task, but tolerate multi-sink graphs too).
	end := NodeID(0)
	for id := 1; id < n; id++ {
		if len(t.succs[NodeID(id)]) == 0 && head[id] > head[end] {
			end = NodeID(id)
		}
	}
	if len(t.succs[end]) != 0 { // no sink found (shouldn't happen post-Validate)
		for id := 0; id < n; id++ {
			if head[id] > head[end] {
				end = NodeID(id)
			}
		}
	}
	var path []NodeID
	for id := end; id >= 0; id = from[id] {
		path = append(path, id)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Clone returns a deep copy of the task (nodes, edges and adjacency). The
// nodes share one backing block and the adjacency rows are carved out of
// four flat buffers, so a clone costs a fixed handful of allocations. Each
// row is capped at its length, so AddEdge on the clone reallocates the row
// instead of appending into the next row's storage.
func (t *Task) Clone() *Task {
	c := New(t.Name, t.Period, t.Deadline)
	block := make([]Node, len(t.Nodes))
	c.Nodes = make([]*Node, len(t.Nodes))
	for i, n := range t.Nodes {
		block[i] = *n
		c.Nodes[i] = &block[i]
	}
	c.Edges = append([]Edge(nil), t.Edges...)
	c.preds = cloneRows(t.preds)
	c.succs = cloneRows(t.succs)
	c.predEdge = cloneRows(t.predEdge)
	c.succEdge = cloneRows(t.succEdge)
	if t.topo != nil {
		c.topo = append([]NodeID(nil), t.topo...)
	}
	return c
}

// cloneRows copies rows into one flat buffer. Empty rows stay nil, as
// AddNode leaves them.
func cloneRows[T NodeID | int32](rows [][]T) [][]T {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]T, 0, total)
	c := make([][]T, len(rows))
	for i, r := range rows {
		if len(r) == 0 {
			continue
		}
		k := len(flat)
		flat = append(flat, r...)
		c[i] = flat[k:len(flat):len(flat)]
	}
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
