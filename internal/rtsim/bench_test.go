package rtsim

import (
	"math/rand"
	"testing"

	"l15cache/internal/workload"
)

// BenchmarkSchedulable is the rtsim layer of Fig. 8(a): one fixed task set
// of the case study (8 cores, 16 tasks, 70% target utilisation) asked of
// all four systems, planning included, as each case-study trial does.
func BenchmarkSchedulable(b *testing.B) {
	p := workload.DefaultTaskSetParams()
	p.TargetUtilization = 0.7 * 8
	p.Tasks = 16
	tasks, err := workload.TaskSet(rand.New(rand.NewSource(1)), p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedulable(tasks, allKinds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
