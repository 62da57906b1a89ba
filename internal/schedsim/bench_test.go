package schedsim

import (
	"math/rand"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/sched"
	"l15cache/internal/workload"
)

// BenchmarkRun is the layer benchmark of the makespan simulator: each
// iteration runs the next of 64 §5.1 synthetic DAGs drawn at the paper's
// defaults (p = 15, cpr = 0.1, U = 0.8) for 10 instances on 8 cores, one
// sub-benchmark per platform. Prop runs on its Alg. 1 schedule, the CMP
// systems on one longest-path-first schedule per DAG, as Fig. 7 does.
func BenchmarkRun(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tasks := make([]*dag.Task, 64)
	for i := range tasks {
		t, err := workload.Synthetic(r, workload.DefaultSynthParams())
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = t
	}
	prop := make([]*sched.Result, len(tasks))
	lpf := make([]*sched.Result, len(tasks))
	props := make([]Platform, len(tasks))
	for i, t := range tasks {
		var err error
		if prop[i], err = sched.L15Schedule(t.Clone(), DefaultZeta, DefaultWayBytes); err != nil {
			b.Fatal(err)
		}
		if lpf[i], err = sched.LongestPathFirst(t); err != nil {
			b.Fatal(err)
		}
		props[i] = &Proposed{Alloc: prop[i]}
	}
	// A CMP platform holds only its constants, so every DAG shares one.
	shared := func(p Platform) []Platform {
		ps := make([]Platform, len(tasks))
		for i := range ps {
			ps[i] = p
		}
		return ps
	}
	for _, c := range []struct {
		name   string
		allocs []*sched.Result
		plats  []Platform
	}{
		{"Prop", prop, props},
		{"CMP-L1", lpf, shared(CMPL1())},
		{"CMP-L2", lpf, shared(CMPL2())},
		{"Shared-L1", lpf, shared(SharedL1())},
	} {
		b.Run(c.name, func(b *testing.B) {
			opt := Options{Cores: 8, Instances: 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(tasks)
				if _, err := Run(c.allocs[k], c.plats[k], opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
