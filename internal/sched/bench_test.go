package sched

import (
	"math/rand"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/workload"
)

// The layer benchmarks of Alg. 1 and its longest-path-first baseline: each
// iteration schedules the next of 64 §5.1 synthetic DAGs drawn at the
// paper's defaults (p = 15, cpr = 0.1, U = 0.8), at ζ = 16 ways of 2 KB.

func benchTasks(b *testing.B) []*dag.Task {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	tasks := make([]*dag.Task, 64)
	for i := range tasks {
		t, err := workload.Synthetic(r, workload.DefaultSynthParams())
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = t
	}
	return tasks
}

func BenchmarkL15Schedule(b *testing.B) {
	tasks := benchTasks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := L15Schedule(tasks[i%len(tasks)], 16, etm.DefaultWayBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongestPathFirst(b *testing.B) {
	tasks := benchTasks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LongestPathFirst(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}
