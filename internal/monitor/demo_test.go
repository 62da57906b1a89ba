package monitor

import (
	"bytes"
	"strings"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/metrics"
	"l15cache/internal/soc"
)

// TestDemoKernelEquivalence is the kernel oracle for cmd/repro's
// cycle-accurate smoke run: the demo under the ticked kernel and under
// the events kernel must produce the same monitor report, the same
// registry snapshot and the same flight events.
func TestDemoKernelEquivalence(t *testing.T) {
	type result struct {
		report string
		snap   []byte
		flight []byte
		events int
	}
	run := func(k kernel.Mode) result {
		cfg := soc.DefaultConfig()
		cfg.Kernel = k
		reg := metrics.NewRegistry()
		rec := flight.New()
		report, err := Demo(cfg, reg, rec)
		if err != nil {
			t.Fatalf("%v kernel: %v", k, err)
		}
		snap, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		recording := rec.Snapshot()
		return result{report, snap, flight.AppendJSONL(nil, recording), len(recording.Events)}
	}
	ticked, events := run(kernel.Ticked), run(kernel.Events)

	if !strings.Contains(events.report, "cluster 0 L1.5: hits") || events.events == 0 {
		t.Fatalf("demo exercised nothing:\n%s", events.report)
	}
	if ticked.report != events.report {
		t.Errorf("monitor report differs\nticked:\n%s\nevents:\n%s", ticked.report, events.report)
	}
	if !bytes.Equal(ticked.snap, events.snap) {
		t.Errorf("registry snapshot differs\nticked:\n%s\nevents:\n%s", ticked.snap, events.snap)
	}
	if !bytes.Equal(ticked.flight, events.flight) {
		t.Errorf("flight events differ\nticked:\n%s\nevents:\n%s", ticked.flight, events.flight)
	}
}

// TestDemoAnalyzesOnlyItsOwnEvents runs the demo into a recorder that
// already holds hardware way moves, as cmd/repro's does: the report must
// match a run into a fresh recorder, and the recorder must hold the
// earlier events followed by the demo's.
func TestDemoAnalyzesOnlyItsOwnEvents(t *testing.T) {
	fresh := flight.New()
	want, err := Demo(soc.DefaultConfig(), metrics.NewRegistry(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	for i := 0; i < 3; i++ {
		rec.Emit(flight.Event{Kind: flight.KindSDU, Time: float64(1000 * i), Task: -1, Job: -1,
			Node: int32(i), Core: 5, Cluster: 0, Wave: -1, A: 1, B: 5})
	}
	got, err := Demo(soc.DefaultConfig(), metrics.NewRegistry(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("report read the recorder's earlier events\ngot:\n%s\nwant:\n%s", got, want)
	}
	evs, demo := rec.Events(), fresh.Events()
	if len(evs) != 3+len(demo) {
		t.Fatalf("recorder holds %d events, want 3 + %d", len(evs), len(demo))
	}
	for i, e := range demo {
		e.Seq += 3
		if evs[3+i] != e {
			t.Fatalf("event %d = %+v, want %+v", 3+i, evs[3+i], e)
		}
	}
}

// TestSnapshotWhileSoCRuns samples the demo's registry from another
// goroutine, as the -trace telemetry sampler samples metrics.Default,
// while the SoC runs on it. Under -race it fails if an instrument reads
// the simulator's plain counters instead of values the SoC goroutine
// stored; without -race it checks that the sampler saw the run start
// and that the final snapshot holds the run's counts.
func TestSnapshotWhileSoCRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			reg.Snapshot()
			if n++; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				stopped <- n
				return
			default:
			}
		}
	}()
	<-started
	_, err := Demo(soc.DefaultConfig(), reg, nil)
	close(stop)
	samples := <-stopped
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"soc.l1.hits", "soc.instret", "soc.cluster0.l15.hits"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0 after the run", name)
		}
	}
	t.Logf("%d snapshots taken while the demo ran", samples)
}
