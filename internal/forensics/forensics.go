// Package forensics turns a flight recording into root-cause answers: who
// was on the critical path, what every node waited for (predecessors, L1.5
// ways, or a free core), how way occupancy moved over time, and why a
// deadline was missed.
//
// The analyzers are offline and pure: they consume a flight.Recording (the
// export of internal/flight) and never touch the simulators, so a recording
// taken on one machine can be dissected on another. All results are
// deterministic functions of the recording — ties break on the lowest node
// ID, map walks are sorted — so cmd/explain output is reproducible
// byte-for-byte, matching the recorder's own determinism contract.
package forensics

import (
	"fmt"
	"sort"

	"l15cache/internal/flight"
)

// Span is one executed node occurrence reconstructed from a dispatch/finish
// event pair.
type Span struct {
	Task, Job int
	Node      int
	Core      int
	Cluster   int
	Start     float64 // dispatch instant
	Fetch     float64 // fetch-phase duration (edge communication)
	Exec      float64 // execute-phase duration
	Finish    float64 // completion instant
	Planned   int     // L1.5 ways Alg. 1 planned for the node
	Granted   int     // ways the Walloc actually granted at dispatch
}

// Edge is one recorded ETM application: the effective cost the consumer
// paid to fetch one predecessor's data.
type Edge struct {
	Pred int     // producer node ID
	Raw  float64 // raw edge cost μ
	Cost float64 // effective cost after the ETM reduction
}

// JobKey identifies one job (task release) in a recording.
type JobKey struct {
	Task, Job int
}

// String renders the key as "task T job J".
func (k JobKey) String() string { return fmt.Sprintf("task %d job %d", k.Task, k.Job) }

// JobInfo is everything recorded about one job.
type JobInfo struct {
	Key      JobKey
	Release  float64
	Deadline float64 // absolute; 0 when the workload has none
	Finish   float64 // completion (or horizon cutoff) instant
	Missed   bool
	Response float64 // response time normalised by the relative deadline

	// Spans maps node ID to its execution; nodes never dispatched (job
	// cut off at the horizon) are absent.
	Spans map[int]*Span
	// Edges maps a consumer node to its recorded incoming edges.
	Edges map[int][]Edge

	planned map[int]int // node -> planned ways (KindGrant A), pre-dispatch
}

// Nodes returns the job's dispatched node IDs in ascending order.
func (j *JobInfo) Nodes() []int {
	ids := make([]int, 0, len(j.Spans))
	for id := range j.Spans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Makespan is the job's completion time relative to its release.
func (j *JobInfo) Makespan() float64 { return j.Finish - j.Release }

// Model is the queryable form of a recording.
type Model struct {
	// Jobs in first-appearance order.
	Jobs  []*JobInfo
	byKey map[JobKey]*JobInfo

	// spans holds every span in dispatch order, for cross-job queries
	// (which span freed the core another span was waiting for).
	spans []*Span

	// wayEvents are the KindGrant/KindWayFree/KindSDU events in sequence
	// order, for the occupancy timelines.
	wayEvents []flight.Event

	// KindCounts tallies the recording by event kind.
	KindCounts [flight.KindCount]int
}

// Build indexes a recording. Events with unknown kinds are counted but
// otherwise ignored, so a newer recording still loads.
func Build(rec flight.Recording) *Model {
	m := &Model{byKey: make(map[JobKey]*JobInfo)}
	for _, e := range rec.Events {
		if int(e.Kind) < flight.KindCount {
			m.KindCounts[e.Kind]++
		}
		switch e.Kind {
		case flight.KindRelease:
			j := m.job(e)
			j.Release = e.Time
			j.Deadline = e.A
		case flight.KindGrant:
			j := m.job(e)
			j.planned[int(e.Node)] = int(e.A)
			m.wayEvents = append(m.wayEvents, e)
		case flight.KindEdge:
			j := m.job(e)
			j.Edges[int(e.Node)] = append(j.Edges[int(e.Node)], Edge{
				Pred: int(e.A), Raw: e.B, Cost: e.C,
			})
		case flight.KindDispatch:
			j := m.job(e)
			sp := &Span{
				Task: int(e.Task), Job: int(e.Job), Node: int(e.Node),
				Core: int(e.Core), Cluster: int(e.Cluster),
				Start: e.Time, Fetch: e.A, Exec: e.B,
				Finish:  e.Time + e.A + e.B,
				Granted: int(e.C),
				Planned: j.planned[int(e.Node)],
			}
			j.Spans[sp.Node] = sp
			m.spans = append(m.spans, sp)
		case flight.KindFinish:
			j := m.job(e)
			if sp, ok := j.Spans[int(e.Node)]; ok {
				sp.Finish = e.Time
			}
		case flight.KindDeadline:
			j := m.job(e)
			j.Finish = e.Time
			j.Missed = e.B != 0
			j.Response = e.C
		case flight.KindWayFree, flight.KindSDU:
			m.wayEvents = append(m.wayEvents, e)
		case flight.KindSchedStart, flight.KindWave, flight.KindLambda,
			flight.KindPlanWays, flight.KindGVConvert:
			// Planning-time events: summarised via KindCounts only.
		default:
			// Unknown kind from a newer writer: skip.
		}
	}
	// A job cut off before its deadline check keeps Finish at the latest
	// span completion so the timelines stay renderable.
	for _, j := range m.Jobs {
		if j.Finish == 0 {
			for _, id := range j.Nodes() {
				if f := j.Spans[id].Finish; f > j.Finish {
					j.Finish = f
				}
			}
		}
	}
	return m
}

// job returns (creating on first sight) the event's job record. Events
// with Task or Job of -1 never reach it.
func (m *Model) job(e flight.Event) *JobInfo {
	key := JobKey{Task: int(e.Task), Job: int(e.Job)}
	if j, ok := m.byKey[key]; ok {
		return j
	}
	j := &JobInfo{
		Key:     key,
		Spans:   make(map[int]*Span),
		Edges:   make(map[int][]Edge),
		planned: make(map[int]int),
	}
	m.byKey[key] = j
	m.Jobs = append(m.Jobs, j)
	return j
}

// Job looks up one job.
func (m *Model) Job(key JobKey) (*JobInfo, bool) {
	j, ok := m.byKey[key]
	return j, ok
}

// FocusJob picks the job cmd/explain should dissect by default: the first
// missed job, or failing that the job with the largest makespan. Returns
// false for a recording with no jobs (e.g. a pure planning or hardware
// recording).
func (m *Model) FocusJob() (JobKey, bool) {
	var best *JobInfo
	for _, j := range m.Jobs {
		if len(j.Spans) == 0 {
			continue
		}
		switch {
		case best == nil:
			best = j
		case j.Missed && !best.Missed:
			best = j
		case j.Missed == best.Missed && j.Makespan() > best.Makespan():
			best = j
		}
	}
	if best == nil {
		return JobKey{}, false
	}
	return best.Key, true
}

// Cores returns the sorted list of cores any span executed on.
func (m *Model) Cores() []int {
	seen := make(map[int]bool)
	for _, sp := range m.spans {
		seen[sp.Core] = true
	}
	cores := make([]int, 0, len(seen))
	for c := range seen {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	return cores
}

// Spans returns every span in dispatch order.
func (m *Model) Spans() []*Span { return m.spans }
