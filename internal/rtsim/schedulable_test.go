package rtsim

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
)

var allKinds = []Kind{KindProp, KindCMPL1, KindCMPL2, KindSharedL1}

// TestSchedulableMatchesRun requires Schedulable's answer for every system
// to equal the success bit of a full Run, over seeds, the case study's
// utilisation range, both schedulers, both kernels and both core counts.
// It also requires the table to contain early-stopped runs and runs that
// meet every deadline, so neither branch is vacuous.
func TestSchedulableMatchesRun(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var met, missed int
	for _, cores := range []int{8, 16} {
		for _, seed := range seeds {
			for u := 0.40; u <= 0.90+1e-9; u += 0.05 {
				tasks := testTaskSet(t, seed*100+int64(u*100), cores, u)
				for _, part := range []bool{false, true} {
					for _, kern := range []kernel.Mode{kernel.Events, kernel.Ticked} {
						cfg := DefaultConfig()
						cfg.Cores = cores
						cfg.Partitioned = part
						cfg.Kernel = kern
						got, err := Schedulable(tasks, allKinds, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for i, k := range allKinds {
							m, err := Run(tasks, k, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got[i] != m.Success() {
								t.Errorf("%dc seed %d u=%.2f partitioned=%v %v %v: Schedulable %v, Run %d/%d misses",
									cores, seed, u, part, kern, k, got[i], m.Misses, m.Jobs)
							}
							if m.Success() {
								met++
							} else {
								missed++
							}
						}
					}
				}
			}
		}
	}
	if met == 0 || missed == 0 {
		t.Errorf("table is one-sided: %d runs met every deadline, %d missed", met, missed)
	}
}

// TestSchedulableCounters checks that Schedulable counts one rtsim trial
// per system and that a run stopped at its first miss dispatches less
// than the full run.
func TestSchedulableCounters(t *testing.T) {
	tasks := testTaskSet(t, 2, 8, 0.9)
	cfg := DefaultConfig()
	trials, nodes := mTrials.Load(), mNodes.Load()
	ok, err := Schedulable(tasks, allKinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := mTrials.Load() - trials; d != uint64(len(allKinds)) {
		t.Errorf("rtsim.trials grew by %d, want %d", d, len(allKinds))
	}
	stopped := mNodes.Load() - nodes
	nodes = mNodes.Load()
	for _, k := range allKinds {
		if _, err := Run(tasks, k, cfg); err != nil {
			t.Fatal(err)
		}
	}
	full := mNodes.Load() - nodes
	if ok[1] || stopped >= full {
		t.Errorf("CMP|L1 schedulable %v; dispatched %d nodes stopped vs %d full, want fewer",
			ok[1], stopped, full)
	}
}

// TestSchedulableStopsWhenMissCertain runs a hand-built set on one core: a
// short-period task H (two 4-unit nodes every 20) and a low-priority task
// L (ten 10-unit nodes, period 200, deadline 30). L's first job cannot
// finish before t = 108 (H's first 8 units, then its own 100), long after
// its deadline. Once the clock passes t = 30 with that job unfinished the
// miss is certain, so Schedulable may dispatch no node after it: for
// every system, its dispatch count is bounded by the full run's
// dispatches at or before t = 30.
func TestSchedulableStopsWhenMissCertain(t *testing.T) {
	h := dag.Chain("H", 2, 4, 0, 0, 0)
	h.Period, h.Deadline = 20, 20
	l := dag.Chain("L", 10, 10, 0, 0, 0)
	l.Period, l.Deadline = 200, 30
	tasks := []*dag.Task{h, l}
	cfg := DefaultConfig()
	cfg.Cores, cfg.ClusterSize = 1, 1
	for _, k := range allKinds {
		rec := flight.New()
		rcfg := cfg
		rcfg.Recorder = rec
		m, err := Run(tasks, k, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		var early, all uint64
		for _, e := range rec.Events() {
			if e.Kind == flight.KindDispatch {
				all++
				if e.Time <= l.Deadline {
					early++
				}
			}
		}
		nodes := mNodes.Load()
		ok, err := Schedulable(tasks, []Kind{k}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stopped := mNodes.Load() - nodes
		if m.Success() || ok[0] {
			t.Fatalf("%v: Run misses %d, Schedulable %v; want a miss", k, m.Misses, ok[0])
		}
		if stopped > early {
			t.Errorf("%v: Schedulable dispatched %d nodes, want at most the %d dispatched by t = %g (full run: %d)",
				k, stopped, early, l.Deadline, all)
		}
	}
}

func TestSchedulableErrors(t *testing.T) {
	tasks := testTaskSet(t, 1, 8, 0.5)
	cfg := DefaultConfig()
	cfg.Recorder = flight.New()
	if _, err := Schedulable(tasks, allKinds, cfg); err == nil {
		t.Error("Schedulable accepted a recorder")
	}
	if _, err := Schedulable(tasks, []Kind{KindProp, Kind(9)}, DefaultConfig()); err == nil {
		t.Error("Schedulable accepted an unknown system")
	}
	if _, err := Schedulable(nil, allKinds, DefaultConfig()); err == nil {
		t.Error("Schedulable accepted an empty task set")
	}
}

// TestRecycledJobIsFresh releases one job per task from a pool filled by
// a run stopped mid-flight, whose unfinished jobs were recycled with
// dispatch state in them, and requires each to equal a job built fresh.
func TestRecycledJobIsFresh(t *testing.T) {
	tasks := testTaskSet(t, 2, 8, 0.9)
	cfg := DefaultConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(tasks, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	used, err := newTrial(tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := used.runSystem(KindProp, p, true); m.Success() {
		t.Fatal("run met every deadline; nothing was stopped mid-flight")
	}
	unused, err := newTrial(tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recycled, fresh := used.newSim(KindProp, p), unused.newSim(KindProp, p)
	pooled := 0
	for ti := range tasks {
		pooled += len(used.free[ti])
		got, want := recycled.newJob(ti, 0), fresh.newJob(ti, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("task %d: recycled job differs from a fresh one:\ngot  %+v\nwant %+v", ti, got, want)
		}
	}
	if pooled == 0 {
		t.Error("no job was recycled; test is vacuous")
	}
}

// TestRunGoldenMetrics pins Run's full metrics for every system on a few
// task sets. Jobs are recycled within a run, and both kernels share
// newJob, so a stale field in a recycled job would pass the kernel
// equivalence tests; it cannot pass this one.
func TestRunGoldenMetrics(t *testing.T) {
	golden := []struct {
		seed  int64
		cores int
		util  float64
		part  bool
		want  Metrics
	}{
		{1, 8, 0.6, false, Metrics{System: KindProp, Jobs: 144, Misses: 0, WayUtilization: 0.9504431686585343, Phi: 0.003007340869132259, BusyTime: 3128.9388530033402, MaxResponse: 0.43949145982281856, MeanResponse: 0.19175498412393088}},
		{1, 8, 0.6, false, Metrics{System: KindCMPL1, Jobs: 144, Misses: 0, WayUtilization: 0, Phi: 0, BusyTime: 3480.324576182867, MaxResponse: 0.6516767067019231, MeanResponse: 0.2951215128497529}},
		{1, 8, 0.6, false, Metrics{System: KindCMPL2, Jobs: 144, Misses: 0, WayUtilization: 0, Phi: 0, BusyTime: 3524.408060690133, MaxResponse: 0.8147034140672821, MeanResponse: 0.3773230153525704}},
		{1, 8, 0.6, false, Metrics{System: KindSharedL1, Jobs: 144, Misses: 0, WayUtilization: 0, Phi: 0, BusyTime: 3443.2228341446817, MaxResponse: 0.5938309154248407, MeanResponse: 0.2689466250167961}},
		{2, 8, 0.8, false, Metrics{System: KindProp, Jobs: 159, Misses: 1, WayUtilization: 0.9555154842141952, Phi: 0.001566483332911663, BusyTime: 3697.3017708542147, MaxResponse: 1.0217850910498607, MeanResponse: 0.24139334105679708}},
		{2, 8, 0.8, false, Metrics{System: KindCMPL1, Jobs: 159, Misses: 11, WayUtilization: 0, Phi: 0, BusyTime: 4290.696963616316, MaxResponse: 2.878576177008106, MeanResponse: 0.5136461479081581}},
		{2, 8, 0.8, false, Metrics{System: KindCMPL2, Jobs: 159, Misses: 18, WayUtilization: 0, Phi: 0, BusyTime: 4731.6989133052375, MaxResponse: 4.652555158862361, MeanResponse: 0.7142015644397514}},
		{2, 8, 0.8, false, Metrics{System: KindSharedL1, Jobs: 159, Misses: 5, WayUtilization: 0, Phi: 0, BusyTime: 4018.11298994852, MaxResponse: 2.0044716640356923, MeanResponse: 0.41853871426606776}},
		{3, 16, 0.7, false, Metrics{System: KindProp, Jobs: 279, Misses: 0, WayUtilization: 0.938171048840502, Phi: 0.0020504470634963947, BusyTime: 3639.45159123015, MaxResponse: 0.7164629654933116, MeanResponse: 0.1513624214781099}},
		{3, 16, 0.7, false, Metrics{System: KindCMPL1, Jobs: 279, Misses: 3, WayUtilization: 0, Phi: 0, BusyTime: 3686.8484949562003, MaxResponse: 1.5842869607253953, MeanResponse: 0.2533282983694965}},
		{3, 16, 0.7, false, Metrics{System: KindCMPL2, Jobs: 279, Misses: 21, WayUtilization: 0, Phi: 0, BusyTime: 4054.782752694039, MaxResponse: 4.029641825851557, MeanResponse: 0.40405285573372224}},
		{3, 16, 0.7, false, Metrics{System: KindSharedL1, Jobs: 279, Misses: 0, WayUtilization: 0, Phi: 0, BusyTime: 3671.9312309446077, MaxResponse: 0.8941519820721688, MeanResponse: 0.21387214761502707}},
		{4, 8, 0.9, true, Metrics{System: KindProp, Jobs: 158, Misses: 3, WayUtilization: 0.9514135278093467, Phi: 0.0008323924488404043, BusyTime: 3862.656567230556, MaxResponse: 1.2984521487684786, MeanResponse: 0.2680203725106227}},
		{4, 8, 0.9, true, Metrics{System: KindCMPL1, Jobs: 158, Misses: 15, WayUtilization: 0, Phi: 0, BusyTime: 4645.442798374933, MaxResponse: 3.0367716993650746, MeanResponse: 0.47253575911899204}},
		{4, 8, 0.9, true, Metrics{System: KindCMPL2, Jobs: 158, Misses: 28, WayUtilization: 0, Phi: 0, BusyTime: 5378.664653426606, MaxResponse: 4.783345894867812, MeanResponse: 0.631178935369604}},
		{4, 8, 0.9, true, Metrics{System: KindSharedL1, Jobs: 158, Misses: 14, WayUtilization: 0, Phi: 0, BusyTime: 4492.585904769006, MaxResponse: 2.9584103797385723, MeanResponse: 0.45862863127554127}},
	}
	for _, g := range golden {
		cfg := DefaultConfig()
		cfg.Cores = g.cores
		cfg.Partitioned = g.part
		got, err := Run(testTaskSet(t, g.seed, g.cores, g.util), g.want.System, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.want {
			t.Errorf("seed %d %dc u=%g partitioned=%v %v:\ngot  %+v\nwant %+v",
				g.seed, g.cores, g.util, g.part, g.want.System, got, g.want)
		}
	}
}

// TestLongestPeriodReleasesHorizonJobs: at an integer horizon H, an
// implicit-deadline task with the longest period releases exactly H jobs,
// the last with its deadline on the horizon. The float test k·T + T > H·T
// dropped that last job for about one period in eight at H = 10.
func TestLongestPeriodReleasesHorizonJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range []float64{4, 10} {
		for i := 0; i < 500; i++ {
			long := dag.Chain("long", 2, 1, 0, 0, 0)
			long.Period = 50 + 1000*rng.Float64()
			long.Deadline = long.Period
			short := dag.Chain("short", 2, 1, 0, 0, 0)
			short.Period, short.Deadline = long.Period/3, long.Period/3
			cfg := DefaultConfig()
			cfg.HorizonPeriods = h
			if err := cfg.fill(); err != nil {
				t.Fatal(err)
			}
			tr, err := newTrial([]*dag.Task{short, long}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs := 0
			for _, r := range tr.releases {
				if r.taskIdx == 1 {
					jobs++
				}
			}
			if jobs != int(h) {
				t.Fatalf("H = %g, T = %v: longest-period task released %d jobs, want %g", h, long.Period, jobs, h)
			}
		}
	}
}

// TestWithinHorizonExact compares the release test with exact rational
// arithmetic at and around each task's last release, over random,
// integer-valued and harmonic periods.
func TestWithinHorizonExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	for i := 0; i < 20000; i++ {
		maxPeriod := 50 + 1000*rng.Float64()
		period := maxPeriod * rng.Float64()
		switch i % 3 {
		case 1:
			maxPeriod = float64(50 + rng.Intn(1000))
			period = float64(1 + rng.Intn(int(maxPeriod)))
		case 2:
			period = maxPeriod / float64(1+rng.Intn(12))
		}
		deadline := period
		if rng.Intn(2) == 0 {
			deadline = period * rng.Float64()
		}
		h := []float64{4, 10, 1 + 20*rng.Float64()}[rng.Intn(3)]
		last := int(math.Floor((h*maxPeriod - deadline) / period))
		for k := max(last-2, 0); k <= last+2; k++ {
			lhs := rat(float64(k))
			lhs.Mul(lhs, rat(period)).Add(lhs, rat(deadline))
			rhs := rat(h)
			rhs.Mul(rhs, rat(maxPeriod))
			if want := lhs.Cmp(rhs) <= 0; withinHorizon(k, period, deadline, h, maxPeriod) != want {
				t.Fatalf("withinHorizon(%d, %v, %v, %v, %v) = %v, want %v", k, period, deadline, h, maxPeriod, !want, want)
			}
		}
	}
}

// TestNonFiniteTimingRejected: a period that is not positive and finite,
// or a non-finite horizon, has no release count; the run reports it
// instead of looping or panicking.
func TestNonFiniteTimingRejected(t *testing.T) {
	for _, period := range []float64{0, -1, math.Inf(1), math.NaN()} {
		task := dag.Chain("bad", 2, 1, 0, 0, 0)
		task.Period = period
		if _, err := Run([]*dag.Task{task}, KindProp, DefaultConfig()); err == nil {
			t.Errorf("Run accepted period %g", period)
		}
	}
	for _, h := range []float64{math.Inf(1), math.NaN()} {
		cfg := DefaultConfig()
		cfg.HorizonPeriods = h
		if _, err := Run([]*dag.Task{dag.Chain("ok", 2, 1, 0, 0, 0)}, KindProp, cfg); err == nil {
			t.Errorf("Run accepted horizon periods %g", h)
		}
	}
}
