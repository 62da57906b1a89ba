// Package analysis provides the safe timing bounds §4.2 of the paper
// appeals to: "Existing analysis (e.g., the one in [8]) can be applied to
// provide safe timing bounds, with minor modifications for communication
// cost on edges."
//
// The bound is the classic Graham-style makespan bound for DAG tasks under
// work-conserving scheduling on m identical cores,
//
//	R = len(cp) + (vol − len(cp)) / m
//
// adapted so that every quantity includes the communication costs a core
// actually executes: each node's effective demand is its WCET plus the sum
// of its incoming edges' (possibly ETM-reduced) fetch costs. The bound is
// safe for any work-conserving non-preemptive fixed-priority order, so it
// holds for both Alg. 1's priorities and the baseline's.
package analysis

import (
	"fmt"

	"l15cache/internal/dag"
)

// Bound is the analysed worst-case timing of one DAG task on m cores.
type Bound struct {
	CriticalPath float64 // longest source-sink path incl. fetch costs
	Volume       float64 // total execution demand incl. fetch costs
	Makespan     float64 // the Graham bound R
}

// Makespan computes the bound under the given edge-cost function (use
// dag.RawCost for a conventional system, or the scheduler's ETM weight for
// the proposed one).
func Makespan(t *dag.Task, m int, w dag.EdgeWeight) (Bound, error) {
	if m < 1 {
		return Bound{}, fmt.Errorf("analysis: need at least one core, got %d", m)
	}
	if err := t.Validate(); err != nil {
		return Bound{}, err
	}

	// Per-node demand: computation plus the fetch costs of the incoming
	// edges (paid by the consumer's core in the execution model).
	demand := make([]float64, len(t.Nodes))
	var vol float64
	for _, n := range t.Nodes {
		d := n.WCET
		for _, p := range t.Pred(n.ID) {
			e, _ := t.Edge(p, n.ID)
			d += w(e)
		}
		demand[n.ID] = d
		vol += d
	}

	// Longest path over the inflated node demands. Edge fetch costs are
	// already folded into the consumer, so path edges weigh zero here.
	order, err := t.TopoOrder()
	if err != nil {
		return Bound{}, err
	}
	head := make([]float64, len(t.Nodes))
	var cp float64
	for _, id := range order {
		best := 0.0
		for _, p := range t.Pred(id) {
			if head[p] > best {
				best = head[p]
			}
		}
		head[id] = best + demand[id]
		if head[id] > cp {
			cp = head[id]
		}
	}

	return Bound{
		CriticalPath: cp,
		Volume:       vol,
		Makespan:     cp + (vol-cp)/float64(m),
	}, nil
}

// Schedulable reports whether the bound meets the task's deadline.
func Schedulable(t *dag.Task, m int, w dag.EdgeWeight) (bool, Bound, error) {
	b, err := Makespan(t, m, w)
	if err != nil {
		return false, Bound{}, err
	}
	return b.Makespan <= t.Deadline, b, nil
}

// CondMakespan bounds a conditional DAG task's makespan: the maximum
// Graham bound over every run-time scenario (exactly one arm per
// conditional executes). The enumeration is exact; callers with very many
// conditionals should cap Scenarios() first.
func CondMakespan(ct *dag.CondTask, m int, w dag.EdgeWeight) (Bound, error) {
	var worst Bound
	first := true
	err := ct.EachScenario(func(choice []int, t *dag.Task) error {
		b, err := Makespan(t, m, w)
		if err != nil {
			return err
		}
		if first || b.Makespan > worst.Makespan {
			worst = b
			first = false
		}
		return nil
	})
	if err != nil {
		return Bound{}, err
	}
	return worst, nil
}
