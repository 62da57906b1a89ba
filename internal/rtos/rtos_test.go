package rtos

import (
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/soc"
)

// smallTask builds a diamond DAG with cycle-scale WCETs and line-aligned
// data volumes.
func smallTask(name string, wcet float64, data int64) *dag.Task {
	t := dag.New(name, 0, 0)
	src := t.AddNode("src", wcet, data)
	a := t.AddNode("a", wcet, data)
	b := t.AddNode("b", wcet, data)
	sink := t.AddNode("sink", wcet, 0)
	t.MustAddEdge(src, a, 10, 0.5)
	t.MustAddEdge(src, b, 10, 0.5)
	t.MustAddEdge(a, sink, 10, 0.5)
	t.MustAddEdge(b, sink, 10, 0.5)
	t.Period, t.Deadline = 1, 1
	return t
}

func kernelConfig(useL15 bool) Config {
	cfg := Config{
		SoC:         soc.DefaultConfig(),
		UseL15:      useL15,
		JobsPerTask: 2,
	}
	return cfg
}

func TestNewErrors(t *testing.T) {
	if _, err := New(kernelConfig(true), nil); err == nil {
		t.Error("empty task set accepted")
	}
	spec := TaskSpec{Task: smallTask("t", 1000, 2048)}
	if _, err := New(kernelConfig(true), []TaskSpec{spec}); err == nil {
		t.Error("zero period accepted")
	}
	bad := TaskSpec{Task: dag.New("bad", 1, 1), PeriodCycles: 1000, DeadlineCycles: 1000}
	if _, err := New(kernelConfig(true), []TaskSpec{bad}); err == nil {
		t.Error("invalid DAG accepted")
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	specs := []TaskSpec{
		{Task: smallTask("t0", 2000, 2048), PeriodCycles: 120_000, DeadlineCycles: 120_000},
		{Task: smallTask("t1", 3000, 4096), PeriodCycles: 150_000, DeadlineCycles: 150_000},
	}
	k, err := New(kernelConfig(true), specs)
	if err != nil {
		t.Fatal(err)
	}
	records, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // 2 tasks × 2 jobs
		t.Fatalf("records = %d, want 4", len(records))
	}
	for _, r := range records {
		if r.Missed {
			t.Errorf("task %d released at %d missed (finish %d, deadline %d)",
				r.Task, r.Release, r.Finish, r.Deadline)
		}
		if r.Finish <= r.Release {
			t.Errorf("job finished before release: %+v", r)
		}
	}
	if Misses(records) != 0 {
		t.Error("Misses disagrees with records")
	}
}

func TestL15PathProducesGlobalHits(t *testing.T) {
	// One task with real dependent data: the consumers must be served
	// from the producer's published (global) ways.
	specs := []TaskSpec{
		{Task: smallTask("t0", 1000, 4096), PeriodCycles: 200_000, DeadlineCycles: 200_000},
	}
	k, err := New(kernelConfig(true), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var globalHits uint64
	for _, cl := range k.SoC().Clusters {
		for _, st := range cl.L15.Stats {
			globalHits += st.GlobalHits
		}
	}
	if globalHits == 0 {
		t.Error("no L1.5 global hits: dependent data did not flow through the cache")
	}
}

func TestBaselineNeverTouchesL15(t *testing.T) {
	specs := []TaskSpec{
		{Task: smallTask("t0", 1000, 4096), PeriodCycles: 200_000, DeadlineCycles: 200_000},
	}
	k, err := New(kernelConfig(false), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, cl := range k.SoC().Clusters {
		if cl.L15.OwnedWays() != 0 {
			t.Error("baseline kernel assigned L1.5 ways")
		}
		for _, st := range cl.L15.Stats {
			if st.GlobalHits != 0 {
				t.Error("baseline saw global hits")
			}
		}
	}
}

func TestL15SpeedsUpDataFlow(t *testing.T) {
	// Same workload on both kernels: the L1.5 path must not be slower in
	// total finish time (it turns consumer L2 misses into L1.5 hits).
	mk := func(useL15 bool) uint64 {
		specs := []TaskSpec{
			{Task: smallTask("t0", 500, 8192), PeriodCycles: 400_000, DeadlineCycles: 400_000},
		}
		k, err := New(kernelConfig(useL15), specs)
		if err != nil {
			t.Fatal(err)
		}
		records, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for _, r := range records {
			if r.Finish > last {
				last = r.Finish
			}
		}
		return last
	}
	with := mk(true)
	without := mk(false)
	if with > without {
		t.Errorf("L1.5 kernel slower: %d vs %d cycles", with, without)
	}
}

func TestDeadlineMissRecorded(t *testing.T) {
	// An absurdly tight deadline must be missed and recorded.
	specs := []TaskSpec{
		{Task: smallTask("t0", 5000, 8192), PeriodCycles: 1_000_000, DeadlineCycles: 10},
	}
	cfg := kernelConfig(true)
	cfg.JobsPerTask = 1
	k, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	records, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if Misses(records) != 1 {
		t.Errorf("misses = %d, want 1 (%+v)", Misses(records), records)
	}
}

func TestRateMonotonicOrdering(t *testing.T) {
	// The short-period task must preempt... (non-preemptive: must be
	// *dispatched* first whenever both are ready). We just verify both
	// complete and the kernel didn't wedge with competing tasks.
	specs := []TaskSpec{
		{Task: smallTask("slow", 3000, 4096), PeriodCycles: 300_000, DeadlineCycles: 300_000},
		{Task: smallTask("fast", 1000, 2048), PeriodCycles: 100_000, DeadlineCycles: 100_000},
	}
	cfg := kernelConfig(true)
	cfg.JobsPerTask = 3
	k, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	records, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("records = %d", len(records))
	}
	if Misses(records) != 0 {
		t.Errorf("misses at trivial load: %+v", records)
	}
}
