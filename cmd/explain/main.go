// Command explain dissects a flight recording (internal/flight) into
// root-cause answers: which nodes formed the critical path and with how
// much slack, what every node waited for (predecessors vs. a free core),
// how the L1.5 way supply moved, and why deadlines were missed.
//
// Usage:
//
//	explain [-task N -job N] [-width N] [-chrome out.json] recording.jsonl
//
// The recording is the JSONL file a -flight flag writes. Without
// -task/-job the tool focuses on the first missed job, or the job with
// the largest makespan. The output is a deterministic function of the
// recording: a summary, an ASCII per-core timeline, the critical path
// with per-step gates, a per-node attribution table, and per-cluster
// way-occupancy statistics. -chrome
// additionally converts the dispatch spans and the per-cluster way
// occupancy into a Chrome trace_event file for chrome://tracing or
// Perfetto.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"l15cache/internal/cli"
	"l15cache/internal/flight"
	"l15cache/internal/forensics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explain: ")

	taskIdx := flag.Int("task", -1, "focus task index (-1 = auto)")
	jobIdx := flag.Int("job", -1, "focus job (release) index (-1 = auto)")
	width := flag.Int("width", 72, "timeline width in characters")
	chrome := flag.String("chrome", "", "also write a Chrome trace_event JSON file")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()

	if flag.NArg() != 1 {
		log.Fatal("usage: explain [flags] recording.jsonl")
	}
	rec, err := flight.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	m := forensics.Build(rec)

	var sb strings.Builder
	summarize(&sb, m, rec)

	key, ok := m.FocusJob()
	if *taskIdx >= 0 && *jobIdx >= 0 {
		key, ok = forensics.JobKey{Task: *taskIdx, Job: *jobIdx}, true
		if _, found := m.Job(key); !found {
			log.Fatalf("no %v in recording", key)
		}
	}
	if ok {
		if err := explainJob(&sb, m, key, *width); err != nil {
			log.Fatal(err)
		}
	} else {
		sb.WriteString("\nno dispatched jobs in recording (planning-only or hardware log)\n")
	}
	wayOccupancy(&sb, m)
	missChains(&sb, m)
	fmt.Print(sb.String())

	if *chrome != "" {
		if err := writeChrome(*chrome, m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nchrome trace written to %s\n", *chrome)
	}
}

// summarize prints the recording header: event counts per kind and the
// saturation evidence.
func summarize(sb *strings.Builder, m *forensics.Model, rec flight.Recording) {
	fmt.Fprintf(sb, "recording: %d events", len(rec.Events))
	if m.Dropped > 0 {
		fmt.Fprintf(sb, " (%d DROPPED — ring wrapped, analysis incomplete)", m.Dropped)
	}
	sb.WriteByte('\n')
	for k := 0; k < flight.KindCount; k++ {
		if n := m.KindCounts[k]; n > 0 {
			fmt.Fprintf(sb, "  %-12s %d\n", flight.Kind(k).String(), n)
		}
	}
	if len(m.Jobs) == 0 {
		return
	}
	fmt.Fprintf(sb, "\n%-6s %-5s %10s %10s %10s %6s\n",
		"task", "job", "release", "finish", "deadline", "miss")
	for _, j := range m.Jobs {
		miss := ""
		if j.Missed {
			miss = "MISS"
		}
		fmt.Fprintf(sb, "%-6d %-5d %10.4g %10.4g %10.4g %6s\n",
			j.Key.Task, j.Key.Job, j.Release, j.Finish, j.Deadline, miss)
	}
}

// explainJob renders the focus job: timeline, critical path, attribution.
func explainJob(sb *strings.Builder, m *forensics.Model, key forensics.JobKey, width int) error {
	j, _ := m.Job(key)
	fmt.Fprintf(sb, "\n== focus: %v  (release %.4g, finish %.4g, makespan %.6g)\n",
		key, j.Release, j.Finish, j.Makespan())

	if g := m.Gantt(key, width); g != "" {
		sb.WriteString("\n" + g)
	}

	path, err := m.CriticalPath(key)
	if err != nil {
		return err
	}
	slack, err := m.Slack(key)
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, "\ncritical path (%d steps):\n", len(path))
	fmt.Fprintf(sb, "%-6s %-5s %-5s %10s %10s %10s  %-8s\n",
		"task", "job", "node", "start", "finish", "dur", "gate")
	for _, st := range path {
		sp := st.Span
		gate := st.Gate.String()
		if st.From != nil {
			gate = fmt.Sprintf("%s(n%d)", st.Gate, st.From.Node)
		}
		fmt.Fprintf(sb, "%-6d %-5d %-5d %10.4g %10.4g %10.4g  %-8s\n",
			sp.Task, sp.Job, sp.Node, sp.Start, sp.Finish, sp.Finish-sp.Start, gate)
	}
	length := forensics.PathLength(path)
	check := "OK"
	if err := forensics.ValidatePath(path); err != nil {
		check = err.Error()
	} else if path[0].Gate == forensics.GateRelease &&
		path[0].Span.Start == j.Release {
		if diff := length - j.Makespan(); diff > 1e-9 || diff < -1e-9 {
			check = fmt.Sprintf("FAIL: length %g != makespan %g", length, j.Makespan())
		}
	}
	fmt.Fprintf(sb, "critical path length %.6g, makespan %.6g — %s\n",
		length, j.Makespan(), check)

	reports, err := m.Attribution(key)
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, "\nper-node attribution:\n")
	fmt.Fprintf(sb, "%-5s %-4s %10s %10s %10s %10s %10s %7s %10s\n",
		"node", "core", "pred-wait", "core-wait", "fetch", "exec", "slack", "ways", "etm-saved")
	for _, r := range reports {
		ways := ""
		if r.Planned > 0 || r.Granted > 0 {
			ways = fmt.Sprintf("%d/%d", r.Granted, r.Planned)
		}
		fmt.Fprintf(sb, "%-5d %-4d %10.4g %10.4g %10.4g %10.4g %10.4g %7s %10.4g\n",
			r.Node, r.Core, r.PredWait, r.CoreWait, r.Fetch, r.Exec, slack[r.Node], ways, r.ETMSaved)
	}
	return nil
}

// wayOccupancy prints per-cluster way-assignment statistics.
func wayOccupancy(sb *strings.Builder, m *forensics.Model) {
	clusters := m.Clusters()
	if len(clusters) == 0 {
		return
	}
	fmt.Fprintf(sb, "\nway occupancy (assigned ways per cluster):\n")
	for _, cl := range clusters {
		pts := m.WayTimeline(cl)
		lo, hi, sum, n := -1, -1, 0, 0
		for _, pt := range pts {
			if pt.Assigned < 0 {
				continue
			}
			if lo < 0 || pt.Assigned < lo {
				lo = pt.Assigned
			}
			if pt.Assigned > hi {
				hi = pt.Assigned
			}
			sum += pt.Assigned
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(sb, "  cluster %d: %d samples, min %d, max %d, mean %.1f\n",
			cl, n, lo, hi, float64(sum)/float64(n))
	}
}

// missChains prints the root-cause chain of every missed job.
func missChains(sb *strings.Builder, m *forensics.Model) {
	chains := m.MissChains()
	if len(chains) == 0 {
		return
	}
	fmt.Fprintf(sb, "\ndeadline misses (%d):\n", len(chains))
	for _, mc := range chains {
		fmt.Fprintf(sb, "  %v late by %.4g: path", mc.Job.Key, mc.Lateness)
		for _, st := range mc.Path {
			fmt.Fprintf(sb, " n%d[%s]", st.Span.Node, st.Gate)
		}
		sb.WriteByte('\n')
		for _, r := range mc.TopWaits {
			fmt.Fprintf(sb, "    n%d waited %.4g (pred %.4g, core %.4g)\n",
				r.Node, r.PredWait+r.CoreWait, r.PredWait, r.CoreWait)
		}
	}
}

// writeChrome converts the recording into a Chrome trace_event file: one
// complete ("X") event per dispatch span (pid = task, tid = core), and one
// counter ("C") series per cluster tracing its assigned L1.5 ways.
func writeChrome(path string, m *forensics.Model) error {
	spans := append([]*forensics.Span(nil), m.Spans()...)
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var events []string
	for _, sp := range spans {
		events = append(events, fmt.Sprintf(
			`{"name":"t%d.j%d.n%d","ph":"X","ts":%g,"dur":%g,"pid":%d,"tid":%d,"args":{"fetch":%g,"exec":%g,"ways":%d}}`,
			sp.Task, sp.Job, sp.Node, sp.Start*1000, (sp.Finish-sp.Start)*1000,
			sp.Task, sp.Core, sp.Fetch, sp.Exec, sp.Granted))
	}
	for _, cl := range m.Clusters() {
		for _, pt := range m.WayTimeline(cl) {
			if pt.Assigned >= 0 {
				events = append(events, fmt.Sprintf(
					`{"name":"cluster %d ways","ph":"C","ts":%g,"pid":0,"args":{"assigned":%d}}`,
					cl, pt.Time*1000, pt.Assigned))
			}
		}
	}
	out := `{"traceEvents":[` + strings.Join(events, ",") + `],"displayTimeUnit":"ms"}` + "\n"
	return os.WriteFile(path, []byte(out), 0o644)
}
