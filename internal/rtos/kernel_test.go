package rtos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"l15cache/internal/cpu"
	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/metrics"
	"l15cache/internal/soc"
)

// The full-stack kernel oracle: the hwcasestudy pipelines run through the
// RTOS on the SoC under the ticked kernel, which steps every instruction,
// and under the events kernel, which skips idle SDU cycles and replays
// countdown loops and quiet park cycles in closed form. Both must leave
// identical state.

// pipeline is the 6-node sensing pipeline of examples/hwcasestudy with
// each stage's WCET drawn within ±3% of scale × its nominal cycles.
func pipeline(name string, scale float64, r *rand.Rand) *dag.Task {
	w := func(wcet float64) float64 { return wcet * scale * (0.97 + 0.06*r.Float64()) }
	t := dag.New(name, 1, 1)
	src := t.AddNode("acquire", w(1500), 8192)
	fl := t.AddNode("filter-l", w(2500), 4096)
	fr := t.AddNode("filter-r", w(2500), 4096)
	fx := t.AddNode("fuse", w(2000), 8192)
	cls := t.AddNode("classify", w(3000), 4096)
	act := t.AddNode("act", w(1000), 0)
	t.MustAddEdge(src, fl, 10, 0.6)
	t.MustAddEdge(src, fr, 10, 0.6)
	t.MustAddEdge(fl, fx, 10, 0.6)
	t.MustAddEdge(fr, fx, 10, 0.6)
	t.MustAddEdge(fx, cls, 10, 0.6)
	t.MustAddEdge(cls, act, 10, 0.6)
	return t
}

// pipelineSpecs is the examples/hwcasestudy task set drawn for seed: two
// pipelines with 250k- and 180k-cycle periods.
func pipelineSpecs(seed int64) []TaskSpec {
	r := rand.New(rand.NewSource(seed))
	return []TaskSpec{
		{Task: pipeline("pipeline-A", 1.0, r), PeriodCycles: 250_000, DeadlineCycles: 250_000},
		{Task: pipeline("pipeline-B", 0.6, r), PeriodCycles: 180_000, DeadlineCycles: 180_000},
	}
}

// runState is everything a kernel run leaves observable.
type runState struct {
	Records []JobRecord
	PC      []uint32
	Regs    [][32]uint32
	Cycles  []uint64
	Halted  []bool
	Stats   []cpu.Stats
	Ticks   []uint64
	Flight  []flight.Event
	Reads   uint64
	Writes  uint64
	Metrics metrics.Snapshot
}

// runPipelines runs the pipelines and returns the state they leave and
// the handler calls the run made.
func runPipelines(t *testing.T, mode kernel.Mode, clusters int, useL15 bool, jobs int, seed int64) (runState, int) {
	t.Helper()
	cfg := Config{SoC: soc.DefaultConfig(), UseL15: useL15, JobsPerTask: jobs}
	cfg.SoC.Clusters = clusters
	cfg.SoC.Kernel = mode
	k, err := New(cfg, pipelineSpecs(seed))
	if err != nil {
		t.Fatal(err)
	}
	s := k.SoC()
	rec := flight.New()
	s.Instrument(nil, rec)
	recs, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := runState{Records: recs, Flight: rec.Events(), Reads: s.Mem.Reads, Writes: s.Mem.Writes}
	for _, c := range s.Cores {
		st.PC = append(st.PC, c.PC)
		st.Regs = append(st.Regs, c.Regs)
		st.Cycles = append(st.Cycles, c.Cycles)
		st.Halted = append(st.Halted, c.Halted)
		st.Stats = append(st.Stats, c.Stats)
	}
	for _, cl := range s.Clusters {
		st.Ticks = append(st.Ticks, cl.L15.Ticks())
	}
	reg := metrics.NewRegistry()
	s.Instrument(reg, nil)
	st.Metrics = reg.Snapshot()
	return st, k.calls
}

// Every SoC size, protocol and job count runs on its own seed. The events
// kernel must also replay the parked cores' quiet polls: it makes under
// 1,000 handler calls per run, and under a tenth of the ticked run's
// (which calls the handler for every poll, ~31,000 times on 2 clusters
// with 3 jobs).
func TestPipelinesTickedMatchesEvents(t *testing.T) {
	maxJobs := 3
	if testing.Short() {
		maxJobs = 1
	}
	seed := int64(0)
	for _, clusters := range []int{2, 4} {
		for _, useL15 := range []bool{true, false} {
			for jobs := 1; jobs <= maxJobs; jobs++ {
				seed++
				name := fmt.Sprintf("clusters=%d/l15=%t/jobs=%d/seed=%d", clusters, useL15, jobs, seed)
				tk, tkCalls := runPipelines(t, kernel.Ticked, clusters, useL15, jobs, seed)
				ev, evCalls := runPipelines(t, kernel.Events, clusters, useL15, jobs, seed)
				if evCalls >= 1000 || evCalls*10 > tkCalls {
					t.Errorf("%s: %d handler calls ticked, %d events", name, tkCalls, evCalls)
				}
				a, b := reflect.ValueOf(tk), reflect.ValueOf(ev)
				for i := 0; i < a.NumField(); i++ {
					if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
						t.Errorf("%s: %s diverged:\nticked %+v\nevents %+v", name,
							a.Type().Field(i).Name, a.Field(i).Interface(), b.Field(i).Interface())
					}
				}
				if len(tk.Records) != 2*jobs {
					t.Errorf("%s: %d job records, want %d", name, len(tk.Records), 2*jobs)
				}
			}
		}
	}
}

// BenchmarkPipelines is the rtos layer of the soc-pipeline workload: the
// hwcasestudy pipelines (seed 1, three jobs per task) through New and Run
// on the 8-core SoC, once with the L1.5 protocol and once with the
// conventional kernel.
func BenchmarkPipelines(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		for _, useL15 := range []bool{true, false} {
			k, err := New(Config{SoC: soc.DefaultConfig(), UseL15: useL15, JobsPerTask: 3}, pipelineSpecs(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
