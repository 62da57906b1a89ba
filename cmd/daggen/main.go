// Command daggen generates the synthetic DAG tasks of §5.1 and inspects
// them: structural summary, Algorithm 1's way allocation and priorities,
// and optional Graphviz output. A failed run still writes the requested
// -metrics and -trace files, then exits 1.
//
// Usage:
//
//	daggen [-seed S] [-u U] [-p P] [-cpr R] [-dot] [-schedule]
package main

import (
	"encoding/json"
	"errors"
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

// options are the flags that choose the task and what to print about it.
type options struct {
	seed                            int64
	params                          workload.SynthParams
	dot, schedule, gantt, csv, json bool
	load                            string
	zeta                            int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("daggen: ")

	o := options{params: workload.DefaultSynthParams()}
	flag.Int64Var(&o.seed, "seed", 1, "RNG seed")
	flag.Float64Var(&o.params.Utilization, "u", 0.8, "task utilisation U_i")
	flag.IntVar(&o.params.MaxWidth, "p", 15, "maximum layer width p")
	flag.Float64Var(&o.params.CPR, "cpr", 0.1, "critical path ratio")
	flag.BoolVar(&o.dot, "dot", false, "emit Graphviz dot instead of the summary")
	flag.BoolVar(&o.schedule, "schedule", false, "run Alg. 1 and print the configuration")
	flag.BoolVar(&o.gantt, "gantt", false, "simulate on 8 cores and print the execution timeline")
	flag.BoolVar(&o.csv, "csv", false, "with -gantt: emit the timeline as CSV instead")
	flag.BoolVar(&o.json, "json", false, "emit the task as JSON instead of the summary")
	flag.StringVar(&o.load, "load", "", "load a task from a JSON file instead of generating one")
	flag.IntVar(&o.zeta, "zeta", 16, "L1.5 ways ζ for -schedule")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()
	flushFiles, err := telemetry.OpenFiles(*metricsOut, *traceOut)
	if err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(run(o), flushFiles()); err != nil {
		log.Fatal(err)
	}
}

// run builds or loads the task and prints what o asks for.
func run(o options) error {
	var task *dag.Task
	if o.load != "" {
		data, err := os.ReadFile(o.load)
		if err != nil {
			return err
		}
		if task, err = dag.LoadJSON(data); err != nil {
			return err
		}
	} else {
		var err error
		if task, err = workload.Synthetic(rand.New(rand.NewSource(o.seed)), o.params); err != nil {
			return err
		}
	}
	if o.json {
		data, err := json.MarshalIndent(task, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if o.dot {
		fmt.Print(task.DOT())
		return nil
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

	if o.gantt || o.csv {
		prop, err := schedsim.NewProposed(task.Clone(), o.zeta, 2048)
		if err != nil {
			return err
		}
		rec := flight.New()
		if _, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{Cores: 8, Recorder: rec}); err != nil {
			return err
		}
		m := forensics.Build(rec.Snapshot())
		fmt.Println()
		if o.csv {
			fmt.Print(spansCSV(m, task))
		} else {
			fmt.Print(m.Gantt(forensics.JobKey{}, 100))
		}
	}

	if !o.schedule {
		return nil
	}
	res, err := sched.L15Schedule(task, o.zeta, 2048)
	if err != nil {
		return err
	}
	fmt.Printf("\nAlg. 1 with ζ=%d ways:\n", o.zeta)
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
	return nil
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
