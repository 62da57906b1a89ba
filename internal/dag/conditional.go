package dag

import "fmt"

// Conditional DAG support, following the well-structured conditional
// model of Chen et al. (reference [5] of the paper): a *branch* node ends
// with an exclusive choice — exactly one of its *arms* (disjoint node
// groups) executes — and control re-joins at a unique *merge* node. The
// co-design applies unchanged: Alg. 1 allocates ways over the full graph
// (conservative: unchosen arms' ways are simply unused that instance), and
// each run-time scenario is an ordinary DAG obtained by deleting the
// unchosen arms.

// Conditional is one branch/merge region.
type Conditional struct {
	Branch NodeID
	Merge  NodeID
	// Arms are the alternative node groups. Exactly one arm executes per
	// instance.
	Arms [][]NodeID
}

// CondTask is a task with conditional regions.
type CondTask struct {
	*Task
	Conds []Conditional
}

// NewConditional wraps a validated task.
func NewConditional(t *Task) *CondTask { return &CondTask{Task: t} }

// AddConditional declares a branch/merge region. The arms must be
// non-empty, pairwise disjoint, not shared with other conditionals, and
// well-structured: every arm node's predecessors lie in the same arm or
// are the branch, and its successors lie in the same arm or are the merge.
func (ct *CondTask) AddConditional(branch, merge NodeID, arms [][]NodeID) error {
	if !ct.valid(branch) || !ct.valid(merge) {
		return fmt.Errorf("dag: conditional references unknown nodes %d/%d", branch, merge)
	}
	if len(arms) < 2 {
		return fmt.Errorf("dag: conditional needs at least two arms, got %d", len(arms))
	}
	seen := ct.conditionalNodes()
	seen[branch] = true // a branch cannot sit inside another arm we add here
	local := map[NodeID]int{}
	for ai, arm := range arms {
		if len(arm) == 0 {
			return fmt.Errorf("dag: arm %d is empty", ai)
		}
		for _, v := range arm {
			if !ct.valid(v) {
				return fmt.Errorf("dag: arm %d references unknown node %d", ai, v)
			}
			if v == branch || v == merge {
				return fmt.Errorf("dag: node %d cannot be both boundary and arm member", v)
			}
			if seen[v] {
				return fmt.Errorf("dag: node %d already belongs to a conditional", v)
			}
			if prev, dup := local[v]; dup {
				return fmt.Errorf("dag: node %d in arms %d and %d", v, prev, ai)
			}
			local[v] = ai
		}
	}
	// Structural containment.
	l := ct.layOut()
	for ai, arm := range arms {
		inArm := map[NodeID]bool{}
		for _, v := range arm {
			inArm[v] = true
		}
		for _, v := range arm {
			for _, p := range l.pred.row(v) {
				if !inArm[p] && p != branch {
					return fmt.Errorf("dag: arm %d node %d has predecessor %d outside the arm", ai, v, p)
				}
			}
			for _, s := range l.succ.row(v) {
				if !inArm[s] && s != merge {
					return fmt.Errorf("dag: arm %d node %d has successor %d outside the arm", ai, v, s)
				}
			}
		}
	}
	ct.Conds = append(ct.Conds, Conditional{Branch: branch, Merge: merge, Arms: arms})
	return nil
}

// conditionalNodes returns every node already claimed by an arm.
func (ct *CondTask) conditionalNodes() map[NodeID]bool {
	m := map[NodeID]bool{}
	for _, c := range ct.Conds {
		for _, arm := range c.Arms {
			for _, v := range arm {
				m[v] = true
			}
		}
	}
	return m
}

// Scenarios returns the number of run-time scenarios (the product of arm
// counts).
func (ct *CondTask) Scenarios() int {
	n := 1
	for _, c := range ct.Conds {
		n *= len(c.Arms)
	}
	return n
}

// Scenario materialises the plain DAG for the given arm choices (one index
// per conditional, in Conds order): unchosen arms' nodes and edges are
// removed, node IDs are remapped densely, and the result is validated.
func (ct *CondTask) Scenario(choice []int) (*Task, error) {
	if len(choice) != len(ct.Conds) {
		return nil, fmt.Errorf("dag: %d choices for %d conditionals", len(choice), len(ct.Conds))
	}
	drop := map[NodeID]bool{}
	for ci, c := range ct.Conds {
		if choice[ci] < 0 || choice[ci] >= len(c.Arms) {
			return nil, fmt.Errorf("dag: conditional %d has no arm %d", ci, choice[ci])
		}
		for ai, arm := range c.Arms {
			if ai == choice[ci] {
				continue
			}
			for _, v := range arm {
				drop[v] = true
			}
		}
	}

	out := New(fmt.Sprintf("%s@%v", ct.Name, choice), ct.Period, ct.Deadline)
	remap := make(map[NodeID]NodeID, len(ct.Nodes))
	for _, n := range ct.Nodes {
		if drop[n.ID] {
			continue
		}
		id := out.AddNode(n.Name, n.WCET, n.Data)
		out.Nodes[id].Priority = n.Priority
		remap[n.ID] = id
	}
	for _, e := range ct.Edges {
		from, okF := remap[e.From]
		to, okT := remap[e.To]
		if !okF || !okT {
			continue
		}
		if err := out.AddEdge(from, to, e.Cost, e.Alpha); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("dag: scenario %v invalid: %w", choice, err)
	}
	return out, nil
}

// EachScenario invokes f with every choice vector and its materialised
// task, stopping early on error. The enumeration is product-ordered and
// deterministic.
func (ct *CondTask) EachScenario(f func(choice []int, t *Task) error) error {
	choice := make([]int, len(ct.Conds))
	for {
		t, err := ct.Scenario(choice)
		if err != nil {
			return err
		}
		snapshot := append([]int(nil), choice...)
		if err := f(snapshot, t); err != nil {
			return err
		}
		// Increment the mixed-radix counter.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(ct.Conds[i].Arms) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			return nil
		}
	}
}
