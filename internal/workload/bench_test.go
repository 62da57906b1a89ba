package workload

import (
	"math/rand"
	"testing"
)

// The layer benchmarks of workload generation: one §5.1 synthetic DAG at
// the paper's defaults, and one §5.2 PARSEC-like task set, per iteration.
// One generator stream runs through the whole benchmark, so a fixed
// -benchtime=Nx draws the same N tasks every run.

func BenchmarkSynthetic(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := DefaultSynthParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthetic(r, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskSet(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := DefaultTaskSetParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TaskSet(r, p); err != nil {
			b.Fatal(err)
		}
	}
}
