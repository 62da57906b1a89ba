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
// registry snapshot, the same flight events and the same trace.
func TestDemoKernelEquivalence(t *testing.T) {
	type result struct {
		report string
		snap   []byte
		flight []byte
		trace  []byte
		events int
	}
	run := func(k kernel.Mode) result {
		cfg := soc.DefaultConfig()
		cfg.Kernel = k
		reg := metrics.NewRegistry()
		rec := flight.New()
		var trace bytes.Buffer
		tr := metrics.NewTracer(&trace)
		report, err := Demo(cfg, reg, tr, rec)
		if err != nil {
			t.Fatalf("%v kernel: %v", k, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		snap, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		recording := rec.Snapshot()
		return result{report, snap, flight.AppendJSONL(nil, recording), trace.Bytes(), len(recording.Events)}
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
	if !bytes.Equal(ticked.trace, events.trace) {
		t.Errorf("trace differs\nticked:\n%s\nevents:\n%s", ticked.trace, events.trace)
	}
}
