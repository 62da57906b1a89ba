// Command daggen generates the synthetic DAG tasks of §5.1 and inspects
// them: structural summary, Algorithm 1's way allocation and priorities,
// and optional Graphviz output.
//
// Usage:
//
//	daggen [-seed S] [-u U] [-p P] [-cpr R] [-dot] [-schedule]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"l15cache/internal/cli"
	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/forensics"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
	"l15cache/internal/telemetry"
	"l15cache/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daggen: ")

	seed := flag.Int64("seed", 1, "RNG seed")
	u := flag.Float64("u", 0.8, "task utilisation U_i")
	p := flag.Int("p", 15, "maximum layer width p")
	cpr := flag.Float64("cpr", 0.1, "critical path ratio")
	dot := flag.Bool("dot", false, "emit Graphviz dot instead of the summary")
	schedule := flag.Bool("schedule", false, "run Alg. 1 and print the configuration")
	gantt := flag.Bool("gantt", false, "simulate on 8 cores and print the execution timeline")
	csv := flag.Bool("csv", false, "with -gantt: emit the timeline as CSV instead")
	jsonOut := flag.Bool("json", false, "emit the task as JSON instead of the summary")
	load := flag.String("load", "", "load a task from a JSON file instead of generating one")
	zeta := flag.Int("zeta", 16, "L1.5 ways ζ for -schedule")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()
	flushFiles, err := telemetry.OpenFiles(*metricsOut, *traceOut)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := flushFiles(); err != nil {
			log.Fatal(err)
		}
	}()

	params := workload.DefaultSynthParams()
	params.Utilization = *u
	params.MaxWidth = *p
	params.CPR = *cpr

	var task *dag.Task
	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			log.Fatal(err)
		}
		task, err = dag.LoadJSON(data)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		task, err = workload.Synthetic(rand.New(rand.NewSource(*seed)), params)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut {
		data, err := json.MarshalIndent(task, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if *dot {
		fmt.Print(task.DOT())
		return
	}

	var comm float64
	for _, e := range task.Edges {
		comm += e.Cost
	}
	fmt.Printf("task: %d nodes, %d edges, T=%.1f\n", len(task.Nodes), len(task.Edges), task.Period)
	fmt.Printf("W=%.2f (U=%.2f)  Σμ=%.2f  comp critical path=%.2f (cpr %.3f)\n",
		task.Volume(), task.Utilization(), comm,
		task.CriticalPathLength(dag.ZeroCost),
		task.CriticalPathLength(dag.ZeroCost)/task.Volume())

	if *gantt || *csv {
		prop, err := schedsim.NewProposed(task.Clone(), *zeta, 2048)
		if err != nil {
			log.Fatal(err)
		}
		rec := flight.New()
		if _, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{Cores: 8, Recorder: rec}); err != nil {
			log.Fatal(err)
		}
		m := forensics.Build(rec.Snapshot())
		fmt.Println()
		if *csv {
			fmt.Print(spansCSV(m, task))
		} else {
			fmt.Print(m.Gantt(forensics.JobKey{}, 100))
		}
	}

	if !*schedule {
		return
	}
	res, err := sched.L15Schedule(task, *zeta, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAlg. 1 with ζ=%d ways:\n", *zeta)
	fmt.Printf("%6s%10s%8s%8s%10s\n", "node", "WCET", "δ(KB)", "ways", "priority")
	for _, id := range res.PriorityOrder() {
		n := task.Node(id)
		fmt.Printf("%6d%10.3f%8.1f%8d%10d\n",
			id, n.WCET, float64(n.Data)/1024, res.Model.Ways[id], n.Priority)
	}
	raw := task.CriticalPathLength(dag.RawCost)
	eff := task.CriticalPathLength(res.Model.Weight())
	fmt.Printf("\ncritical path: raw %.2f -> with L1.5 %.2f (%.1f%% shorter)\n",
		raw, eff, 100*(raw-eff)/raw)
}

// spansCSV renders every recorded span, in dispatch order, as
// comma-separated rows with a header: the fetch phase is [start,
// fetch_end), the computation [fetch_end, end).
func spansCSV(m *forensics.Model, task *dag.Task) string {
	var sb strings.Builder
	sb.WriteString("instance,core,node,name,start,fetch_end,end\n")
	for _, sp := range m.Spans() {
		fmt.Fprintf(&sb, "%d,%d,%d,%s,%.6g,%.6g,%.6g\n",
			sp.Job, sp.Core, sp.Node, task.Node(dag.NodeID(sp.Node)).Name,
			sp.Start, sp.Start+sp.Fetch, sp.Finish)
	}
	return sb.String()
}
