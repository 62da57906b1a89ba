package workload

import (
	"fmt"
	"math/rand"

	"l15cache/internal/dag"
)

// CondParams configure synthetic conditional-DAG generation: a plain
// layered task (SynthParams) plus branch/merge regions inserted between
// consecutive layers.
type CondParams struct {
	Synth SynthParams

	// Conditionals is how many branch/merge regions to insert (each uses
	// one fresh branch node, one fresh merge node and Arms fresh arms).
	Conditionals int

	// Arms is the number of alternative arms per conditional (≥2).
	Arms int

	// ArmLen is the node count of each arm (a chain).
	ArmLen int
}

// DefaultCondParams returns a modest configuration: two 2-arm conditionals
// with 2-node arms on the default synthetic task.
func DefaultCondParams() CondParams {
	return CondParams{
		Synth:        DefaultSynthParams(),
		Conditionals: 2,
		Arms:         2,
		ArmLen:       2,
	}
}

// SyntheticConditional generates a conditional DAG task: the base layered
// task of §5.1 with branch/merge regions grafted onto random nodes. Each
// region hangs off a host node (the branch) and re-joins at a fresh merge
// node that feeds the host's original successors' layer via the sink-ward
// structure — concretely, the merge connects to the task's sink, keeping
// the graph single-source/single-sink without restructuring the host's
// edges.
func SyntheticConditional(r *rand.Rand, p CondParams) (*dag.CondTask, error) {
	if p.Conditionals < 0 || p.Arms < 2 || p.ArmLen < 1 {
		return nil, fmt.Errorf("workload: bad conditional parameters %+v", p)
	}
	base, err := Synthetic(r, p.Synth)
	if err != nil {
		return nil, err
	}
	sink := base.Sink()

	type region struct {
		branch, merge dag.NodeID
		arms          [][]dag.NodeID
	}
	var regions []region

	// Hosts: random non-sink nodes of the *original* graph (later
	// iterations must not pick another region's arm or merge nodes),
	// distinct per region. The sink, the only node of the validated base
	// without successors, starts out used.
	originalNodes := len(base.Nodes)
	used := map[dag.NodeID]bool{sink: true}
	meanWCET := base.Volume() / float64(len(base.Nodes))
	for c := 0; c < p.Conditionals; c++ {
		var host dag.NodeID = -1
		for try := 0; try < 50; try++ {
			cand := dag.NodeID(r.Intn(originalNodes))
			if !used[cand] {
				host = cand
				break
			}
		}
		if host < 0 {
			break
		}
		used[host] = true

		merge := base.AddNode(fmt.Sprintf("merge%d", c), meanWCET/2, 2048)
		arms := make([][]dag.NodeID, p.Arms)
		for a := 0; a < p.Arms; a++ {
			prev := host
			for n := 0; n < p.ArmLen; n++ {
				v := base.AddNode(fmt.Sprintf("c%da%dn%d", c, a, n),
					meanWCET*(0.5+r.Float64()), 2048+int64(r.Intn(4096)))
				base.MustAddEdge(prev, v, 1+r.Float64()*2, 0.1+r.Float64()*0.5)
				arms[a] = append(arms[a], v)
				prev = v
			}
			base.MustAddEdge(prev, merge, 1+r.Float64()*2, 0.1+r.Float64()*0.5)
		}
		base.MustAddEdge(merge, sink, 1, 0.5)
		regions = append(regions, region{branch: host, merge: merge, arms: arms})
	}

	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("workload: conditional base invalid: %w", err)
	}
	ct := dag.NewConditional(base)
	for _, reg := range regions {
		if err := ct.AddConditional(reg.branch, reg.merge, reg.arms); err != nil {
			return nil, fmt.Errorf("workload: region rejected: %w", err)
		}
	}
	return ct, nil
}
