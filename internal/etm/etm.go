// Package etm implements the Execution Time Model of Zhao et al. (RTNS'23),
// reference [15] of the paper, which the co-design uses to predict the
// communication-cost speed-up an edge enjoys when the producer's dependent
// data is held in n L1.5 Cache ways:
//
//	ET(e_{j,k}, n) = μ_{j,k} × (1 − α_{j,k} × n/⌈δ_j/κ⌉)
//
// where δ_j is the data volume produced by v_j, κ the capacity of one cache
// way, and α_{j,k} ∈ (0,1) the maximum fraction of the communication cost
// the cache can remove (0.7 in the paper's experiments).
package etm

import "l15cache/internal/dag"

// DefaultWayBytes is κ for the paper's L1.5 configuration: 2 KB per way.
const DefaultWayBytes = 2 * 1024

// WaysNeeded returns ⌈δ/κ⌉, the number of L1.5 ways required to hold the
// dependent data of a node. A node that produces no data needs no ways.
func WaysNeeded(dataBytes, wayBytes int64) int {
	if dataBytes <= 0 {
		return 0
	}
	if wayBytes <= 0 {
		panic("etm: non-positive way capacity")
	}
	return int((dataBytes + wayBytes - 1) / wayBytes)
}

// Cost returns ET(e, n): the communication cost of an edge with raw cost mu
// and speed-up ratio alpha when n ways of capacity wayBytes hold the
// producer's dataBytes of dependent data. n beyond ⌈δ/κ⌉ gives no further
// benefit; n = 0 returns the full cost. An edge whose producer emits no data
// has nothing to accelerate and keeps its raw cost.
func Cost(mu, alpha float64, dataBytes, wayBytes int64, n int) float64 {
	if n <= 0 || mu <= 0 {
		return mu
	}
	needed := WaysNeeded(dataBytes, wayBytes)
	if needed == 0 {
		return mu
	}
	frac := float64(n) / float64(needed)
	if frac > 1 {
		frac = 1
	}
	return mu * (1 - alpha*frac)
}

// Model evaluates the ETM for a whole task given a per-node way allocation.
// It adapts the allocation into the dag.EdgeWeight shape used by the
// longest-path dynamic programs and the schedulers.
type Model struct {
	Task     *dag.Task
	WayBytes int64

	// Ways[v] is the number of L1.5 ways holding v's dependent data
	// (v's local ways, turned global once v completes). The slice is
	// indexed by NodeID and dense — zero entries mean zero ways — so the
	// longest-path inner loop stays a plain array load.
	Ways []int
}

// NewModel returns a Model over the task with κ = wayBytes and no ways
// allocated yet.
func NewModel(t *dag.Task, wayBytes int64) *Model {
	return &Model{Task: t, WayBytes: wayBytes, Ways: make([]int, len(t.Nodes))}
}

// EdgeCost returns ET(e, Ways[e.From]).
func (m *Model) EdgeCost(e dag.Edge) float64 {
	return Cost(e.Cost, e.Alpha, m.Task.Node(e.From).Data, m.WayBytes, m.Ways[e.From])
}

// Weight returns m.EdgeCost as a dag.EdgeWeight.
func (m *Model) Weight() dag.EdgeWeight { return m.EdgeCost }
