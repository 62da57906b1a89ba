package rtsim

import (
	"fmt"
	"reflect"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
)

// runBothKernels runs the task set on one system under the ticked and the
// events dispatch kernel and requires identical metrics and flight
// recordings. It returns the events kernel's recording.
func runBothKernels(t *testing.T, name string, tasks []*dag.Task, kind Kind, cfg Config) []flight.Event {
	t.Helper()
	var ms [2]Metrics
	var evs [2][]flight.Event
	for i, mode := range []kernel.Mode{kernel.Ticked, kernel.Events} {
		c := cfg
		c.Kernel = mode
		c.Recorder = flight.New()
		m, err := Run(tasks, kind, c)
		if err != nil {
			t.Fatalf("%s %v %v: %v", name, kind, mode, err)
		}
		ms[i], evs[i] = m, c.Recorder.Events()
	}
	if ms[0] != ms[1] {
		t.Errorf("%s %v: metrics diverged:\nticked %+v\nevents %+v", name, kind, ms[0], ms[1])
	}
	if !reflect.DeepEqual(evs[0], evs[1]) {
		t.Errorf("%s %v: flight recordings diverged (%d vs %d events)", name, kind, len(evs[0]), len(evs[1]))
	}
	if len(evs[1]) == 0 {
		t.Errorf("%s %v: no flight events; test is vacuous", name, kind)
	}
	return evs[1]
}

// TestKernelEquivalence runs the same task set under the ticked and events
// dispatch kernels for every system kind and requires identical metrics
// and flight recordings — the per-trial slice of what the kernel-
// equivalence CI job byte-compares across full experiment runs. The core
// counts go past one 64-bit word of the events kernel's idle set, once
// with clusters that straddle the word boundary.
func TestKernelEquivalence(t *testing.T) {
	cases := []struct {
		cores, clusterSize int
		seeds              []int64
	}{
		{8, 4, []int64{1, 2, 3}},
		{16, 4, []int64{1, 2}},
		{72, 4, []int64{1}},
		{72, 6, []int64{2}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			tasks := testTaskSet(t, seed, tc.cores, 0.7)
			cfg := DefaultConfig()
			cfg.Cores, cfg.ClusterSize = tc.cores, tc.clusterSize
			for _, kind := range allKinds {
				runBothKernels(t, fmt.Sprintf("%d cores, clusters of %d, seed %d", tc.cores, tc.clusterSize, seed), tasks, kind, cfg)
			}
		}
	}
}

// TestKernelEquivalencePartitioned covers the partitioned dispatcher and
// an overload, where preemption-free backlog handling differs most between
// the two dispatch loops.
func TestKernelEquivalencePartitioned(t *testing.T) {
	tasks := testTaskSet(t, 7, 8, 1.2)
	for _, part := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Partitioned = part
		for _, kind := range allKinds {
			runBothKernels(t, fmt.Sprintf("partitioned=%v", part), tasks, kind, cfg)
		}
	}
}

// zeroLengthTasks builds two tasks whose middle node z has zero WCET and a
// zero-cost in-edge, so z's dispatch has zero length on every system.
// Each source forks into z and a longer sibling, so z and other nodes are
// ready at the same instant.
func zeroLengthTasks(t *testing.T) []*dag.Task {
	t.Helper()
	var tasks []*dag.Task
	for i, period := range []float64{10, 14} {
		task := dag.New("zero", period, period)
		src := task.AddNode("src", 1, 4096)
		z := task.AddNode("z", 0, 0)
		x := task.AddNode("x", 2+float64(i), 8192)
		snk := task.AddNode("snk", 1, 0)
		task.MustAddEdge(src, z, 0, 0.5)
		task.MustAddEdge(src, x, 0.5, 0.5)
		task.MustAddEdge(z, snk, 0, 0.5)
		task.MustAddEdge(x, snk, 0.5, 0.5)
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	return tasks
}

// TestKernelEquivalenceZeroLength covers zero-length dispatches: the core
// stays idle and may take another node at the same instant, before the
// zero-length node's completion is popped. It requires that case to occur.
func TestKernelEquivalenceZeroLength(t *testing.T) {
	tasks := zeroLengthTasks(t)
	replaced := 0
	for _, cores := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.Cores = cores
		for _, kind := range allKinds {
			evs := runBothKernels(t, "zero-length", tasks, kind, cfg)
			zero := map[[2]float64]bool{} // (core, time) of zero-length dispatches
			for _, e := range evs {
				if e.Kind != flight.KindDispatch {
					continue
				}
				at := [2]float64{float64(e.Core), e.Time}
				if zero[at] {
					replaced++
				}
				if e.A+e.B == 0 {
					zero[at] = true
				}
			}
		}
	}
	if replaced == 0 {
		t.Error("no core took a node at the instant it ran a zero-length one; test is vacuous")
	}
}
