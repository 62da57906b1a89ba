package dag

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonTask is the stable on-disk schema for a DAG task. Node IDs are
// implicit (array order), so hand-written files stay compact.
type jsonTask struct {
	Name     string     `json:"name"`
	Period   float64    `json:"period"`
	Deadline float64    `json:"deadline"`
	Nodes    []jsonNode `json:"nodes"`
	Edges    []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name string  `json:"name"`
	WCET float64 `json:"wcet"`
	Data int64   `json:"data,omitempty"`
}

type jsonEdge struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Cost  float64 `json:"cost"`
	Alpha float64 `json:"alpha"`
}

// MarshalJSON encodes the task in the documented schema.
func (t *Task) MarshalJSON() ([]byte, error) {
	jt := jsonTask{
		Name:     t.Name,
		Period:   t.Period,
		Deadline: t.Deadline,
		Nodes:    make([]jsonNode, len(t.Nodes)),
		Edges:    make([]jsonEdge, len(t.Edges)),
	}
	for i, n := range t.Nodes {
		jt.Nodes[i] = jsonNode{Name: n.Name, WCET: n.WCET, Data: n.Data}
	}
	for i, e := range t.Edges {
		jt.Edges[i] = jsonEdge{From: int(e.From), To: int(e.To), Cost: e.Cost, Alpha: e.Alpha}
	}
	return json.Marshal(jt)
}

// UnmarshalJSON decodes and validates a task, so a malformed file fails
// loudly at load time: beyond Validate's structure checks, the period must
// be positive, the deadline non-negative (0 means none), and the volume and
// critical path finite.
func (t *Task) UnmarshalJSON(data []byte) error {
	var jt jsonTask
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	if !(jt.Period > 0) {
		return fmt.Errorf("dag %q: period %g is not positive", jt.Name, jt.Period)
	}
	if jt.Deadline < 0 {
		return fmt.Errorf("dag %q: deadline %g is negative", jt.Name, jt.Deadline)
	}
	nt := New(jt.Name, jt.Period, jt.Deadline)
	for _, n := range jt.Nodes {
		nt.AddNode(n.Name, n.WCET, n.Data)
	}
	for _, e := range jt.Edges {
		if e.From < 0 || e.From >= len(nt.Nodes) || e.To < 0 || e.To >= len(nt.Nodes) {
			return fmt.Errorf("dag: edge %d->%d references unknown node", e.From, e.To)
		}
		if err := nt.AddEdge(NodeID(e.From), NodeID(e.To), e.Cost, e.Alpha); err != nil {
			return err
		}
	}
	if err := nt.Validate(); err != nil {
		return err
	}
	if w, cp := nt.Volume(), nt.CriticalPathLength(RawCost); math.IsInf(w, 0) || math.IsInf(cp, 0) {
		return fmt.Errorf("dag %q: volume %g or critical path %g is not finite", jt.Name, w, cp)
	}
	*t = *nt
	return nil
}

// LoadJSON parses a task from JSON bytes.
func LoadJSON(data []byte) (*Task, error) {
	t := New("", 0, 0)
	if err := json.Unmarshal(data, t); err != nil {
		return nil, err
	}
	return t, nil
}
