// Autonomous-driving pipeline: the motivating application of the paper's
// introduction. Perception consumes the sensors, decision consumes
// perception, control consumes decision — a DAG with heavy dependent-data
// flow (point clouds, detection lists, trajectories) between nodes.
//
// The example builds the pipeline, schedules it with Algorithm 1 and shows
// how the L1.5 Cache shortens the reaction path (source → control).
package main

import (
	"fmt"
	"log"

	"l15cache"
	"l15cache/internal/dag"
)

func main() {
	log.SetFlags(0)

	// 100 ms driving period; times in milliseconds.
	task := l15cache.NewTask("autonomous-driving", 100, 100)

	sensors := task.AddNode("sensor-hub", 2, 4096)
	camera := task.AddNode("camera-pre", 8, 16*1024)
	lidar := task.AddNode("lidar-pre", 10, 16*1024)
	radar := task.AddNode("radar-pre", 4, 4096)
	detect := task.AddNode("detection", 12, 8*1024)
	track := task.AddNode("tracking", 6, 4096)
	fuse := task.AddNode("fusion", 5, 8*1024)
	predict := task.AddNode("prediction", 7, 4096)
	plan := task.AddNode("planning", 9, 4096)
	control := task.AddNode("control", 3, 0)

	type edge struct {
		from, to l15cache.NodeID
		cost     float64
		alpha    float64
	}
	for _, e := range []edge{
		{sensors, camera, 2, 0.6},
		{sensors, lidar, 2, 0.6},
		{sensors, radar, 1, 0.5},
		{camera, detect, 6, 0.7},
		{lidar, detect, 6, 0.7},
		{camera, track, 3, 0.6},
		{radar, track, 2, 0.5},
		{detect, fuse, 4, 0.7},
		{track, fuse, 2, 0.6},
		{fuse, predict, 3, 0.7},
		{predict, plan, 2, 0.6},
		{fuse, plan, 2, 0.5},
		{plan, control, 1, 0.5},
	} {
		if err := task.AddEdge(e.from, e.to, e.cost, e.alpha); err != nil {
			log.Fatal(err)
		}
	}
	if err := task.Validate(); err != nil {
		log.Fatal(err)
	}

	raw := task.CriticalPathLength(dag.RawCost)
	fmt.Printf("pipeline: %d nodes, %d edges, W=%.0f ms\n", len(task.Nodes), len(task.Edges), task.Volume())
	fmt.Printf("reaction path (sensors → control), conventional cache: %.1f ms\n", raw)

	alloc, err := l15cache.Schedule(task, 16, 2048)
	if err != nil {
		log.Fatal(err)
	}
	assisted := task.CriticalPathLength(alloc.Model.EdgeCost)
	fmt.Printf("reaction path with L1.5-assisted communication:        %.1f ms (%.0f%% shorter)\n",
		assisted, 100*(raw-assisted)/raw)

	fmt.Println("\nper-stage configuration (ways hold the stage's output for its consumers):")
	for _, n := range task.Nodes {
		fmt.Printf("  %-12s C=%4.0f ms  δ=%5.1f KB  ways=%d  priority=%d\n",
			n.Name, n.WCET, float64(n.Data)/1024, alloc.Model.Ways[n.ID], n.Priority)
	}

	// Makespan on the 4-core cluster, proposed vs conventional.
	opt := l15cache.SimOptions{Cores: 4, Instances: 3}
	prop := &l15cache.Proposed{Alloc: alloc}
	propStats, err := l15cache.Simulate(alloc, prop, opt)
	if err != nil {
		log.Fatal(err)
	}
	base, err := l15cache.LongestPathFirst(task.Clone())
	if err != nil {
		log.Fatal(err)
	}
	cmpStats, err := l15cache.Simulate(base, l15cache.CMPL1(), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nend-to-end makespan on 4 cores (worst instance):\n")
	fmt.Printf("  Prop:   %.1f ms\n", worst(propStats))
	fmt.Printf("  CMP|L1: %.1f ms\n", worst(cmpStats))
	fmt.Printf("deadline: %.0f ms\n", task.Deadline)
}

func worst(stats []l15cache.InstanceStats) float64 {
	var m float64
	for _, s := range stats {
		if s.Makespan > m {
			m = s.Makespan
		}
	}
	return m
}
