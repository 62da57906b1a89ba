package forensics_test

import (
	"math"
	"math/rand"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/forensics"
	"l15cache/internal/rtsim"
	"l15cache/internal/schedsim"
	"l15cache/internal/workload"
)

// recordSchedsim runs one proposed-platform simulation with a recorder and
// returns the recording plus the simulated makespans.
func recordSchedsim(t *testing.T, seed int64, instances int) (flight.Recording, []schedsim.InstanceStats) {
	t.Helper()
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), workload.DefaultSynthParams())
	if err != nil {
		t.Fatal(err)
	}
	prop, err := schedsim.NewProposed(task, 16, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	stats, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{
		Cores: 8, Instances: instances, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot(), stats
}

// TestCriticalPathEqualsMakespan is the acceptance property: the extracted
// critical path of an instance is contiguous, starts at the release, ends
// at the last completion, and therefore has length exactly equal to the
// simulated makespan.
func TestCriticalPathEqualsMakespan(t *testing.T) {
	recording, stats := recordSchedsim(t, 7, 3)
	m := forensics.Build(recording)
	if len(m.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(m.Jobs))
	}
	for i, j := range m.Jobs {
		path, err := m.CriticalPath(j.Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := forensics.ValidatePath(path); err != nil {
			t.Fatal(err)
		}
		if got := path[0].Gate; got != forensics.GateRelease {
			t.Fatalf("job %d: first gate = %v, want release", i, got)
		}
		length := forensics.PathLength(path)
		if want := stats[i].Makespan; math.Abs(length-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("job %d: critical path length %g != makespan %g", i, length, want)
		}
	}
}

// TestSlackConsistency checks the slack invariants: critical-path nodes
// have zero slack, no slack is negative, and finish+slack never exceeds
// the earliest recorded consumer start.
func TestSlackConsistency(t *testing.T) {
	recording, _ := recordSchedsim(t, 11, 1)
	m := forensics.Build(recording)
	j := m.Jobs[0]
	slack, err := m.Slack(j.Key)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.CriticalPath(j.Key)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range path {
		if step.Span.Task != j.Key.Task || step.Span.Job != j.Key.Job {
			continue // chain segment borrowed from another job
		}
		if s := slack[step.Span.Node]; math.Abs(s) > 1e-9 {
			t.Fatalf("critical node %d has slack %g, want 0", step.Span.Node, s)
		}
	}
	for _, id := range j.Nodes() {
		if slack[id] < -1e-9 {
			t.Fatalf("node %d has negative slack %g", id, slack[id])
		}
	}
}

// TestAttributionDecomposition checks that each node's recorded response
// decomposes exactly: release + PredWait + CoreWait + Fetch + Exec =
// finish.
func TestAttributionDecomposition(t *testing.T) {
	recording, _ := recordSchedsim(t, 3, 1)
	m := forensics.Build(recording)
	j := m.Jobs[0]
	reports, err := m.Attribution(j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(j.Spans) {
		t.Fatalf("reports = %d, want %d", len(reports), len(j.Spans))
	}
	for _, r := range reports {
		sum := j.Release + r.PredWait + r.CoreWait + r.Fetch + r.Exec
		if math.Abs(sum-r.Finish) > 1e-9*math.Max(1, r.Finish) {
			t.Fatalf("node %d: decomposition %g != finish %g", r.Node, sum, r.Finish)
		}
		if r.PredWait < -1e-9 || r.CoreWait < -1e-9 {
			t.Fatalf("node %d: negative wait (pred %g, core %g)", r.Node, r.PredWait, r.CoreWait)
		}
	}
}

// recordRtsim runs one proposed-system real-time trial with a recorder.
func recordRtsim(t *testing.T) flight.Recording {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	set := workload.DefaultTaskSetParams()
	set.Tasks = 3
	set.TargetUtilization = 0.6 * 8
	tasks, err := workload.TaskSet(r, set)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rtsim.DefaultConfig()
	rec := flight.New()
	cfg.Recorder = rec
	if _, err := rtsim.Run(tasks, rtsim.KindProp, cfg); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot()
}

// TestRtsimRecordingForensics checks the analyzers on a multi-task
// real-time recording: the focus job's critical path is contiguous, ends
// at the job's completion, terminates at a release, and the way timelines
// stay within the cluster's capacity.
func TestRtsimRecordingForensics(t *testing.T) {
	recording := recordRtsim(t)
	m := forensics.Build(recording)
	if m.Dropped != 0 {
		t.Fatalf("recording dropped %d events; enlarge the test ring", m.Dropped)
	}
	key, ok := m.FocusJob()
	if !ok {
		t.Fatal("no focus job in recording")
	}
	j, _ := m.Job(key)
	path, err := m.CriticalPath(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := forensics.ValidatePath(path); err != nil {
		t.Fatal(err)
	}
	if got := path[len(path)-1].Span.Finish; math.Abs(got-j.Finish) > 1e-9 {
		t.Fatalf("path ends at %g, job finishes at %g", got, j.Finish)
	}
	if path[0].Gate != forensics.GateRelease {
		t.Fatalf("first gate = %v, want release", path[0].Gate)
	}
	for _, cl := range m.Clusters() {
		for _, pt := range m.WayTimeline(cl) {
			if pt.Assigned > 16 {
				t.Fatalf("cluster %d: %d ways assigned at t=%g (ζ=16)", cl, pt.Assigned, pt.Time)
			}
		}
	}
}

// TestSpansCoverEveryNode checks the span reconstruction on a recorded
// schedsim run: every node of every instance is dispatched exactly once,
// each span's fetch phase precedes its execution and ends at Finish, and
// no two spans of an instance overlap on a core (non-preemptive).
func TestSpansCoverEveryNode(t *testing.T) {
	recording, stats := recordSchedsim(t, 3, 2)
	m := forensics.Build(recording)
	if len(m.Jobs) != len(stats) {
		t.Fatalf("jobs = %d, want %d", len(m.Jobs), len(stats))
	}
	task, err := workload.Synthetic(rand.New(rand.NewSource(3)), workload.DefaultSynthParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range m.Jobs {
		if len(j.Spans) != len(task.Nodes) {
			t.Fatalf("%v: %d spans for %d nodes", j.Key, len(j.Spans), len(task.Nodes))
		}
	}
	if n := len(m.Jobs) * len(task.Nodes); len(m.Spans()) != n {
		t.Fatalf("%d dispatches, want %d", len(m.Spans()), n)
	}
	for _, sp := range m.Spans() {
		if sp.Fetch < 0 || sp.Exec <= 0 || sp.Finish != sp.Start+sp.Fetch+sp.Exec {
			t.Fatalf("span %+v: phases do not add up", *sp)
		}
	}
	spans := m.Spans()
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.Job == b.Job && a.Core == b.Core && a.Start < b.Finish && b.Start < a.Finish {
				t.Fatalf("overlap on core %d: %+v and %+v", a.Core, *a, *b)
			}
		}
	}
	for i, j := range m.Jobs {
		if j.Makespan() != stats[i].Makespan {
			t.Errorf("job %d: makespan %g, simulated %g", i, j.Makespan(), stats[i].Makespan)
		}
	}
}

// TestGantt pins the ASCII renderer on a hand-built recording: the focus
// job's spans print as letters, another job's span as '.', and the focus
// span wins a shared column.
func TestGantt(t *testing.T) {
	ev := func(k flight.Kind, at float64, task, node, core int32, a, b float64) flight.Event {
		return flight.Event{Kind: k, Time: at, Task: task, Node: node, Core: core,
			Cluster: -1, Wave: -1, A: a, B: b}
	}
	m := forensics.Build(flight.Recording{Events: []flight.Event{
		ev(flight.KindRelease, 0, 0, -1, -1, 0, 0),
		ev(flight.KindRelease, 0, 1, -1, -1, 0, 0),
		ev(flight.KindDispatch, 0, 0, 0, 0, 1, 3),
		ev(flight.KindDispatch, 0, 1, 0, 1, 0, 2),
		ev(flight.KindDispatch, 2, 0, 1, 1, 2, 4),
		ev(flight.KindDeadline, 2, 1, -1, -1, 0, 0),
		ev(flight.KindDeadline, 8, 0, -1, -1, 0, 0),
	}})
	want := "timeline [0, 8]:\n" +
		"core  0 |aaaaa   |\n" +
		"core  1 |..bbbbbb|\n" +
		"  legend: a=n0 b=n1\n"
	if got := m.Gantt(forensics.JobKey{}, 8); got != want {
		t.Errorf("Gantt:\n%s\nwant:\n%s", got, want)
	}
	if m.Gantt(forensics.JobKey{Task: 9}, 8) != "" || m.Gantt(forensics.JobKey{}, 7) != "" {
		t.Error("unknown job or narrow width rendered a chart")
	}
}
