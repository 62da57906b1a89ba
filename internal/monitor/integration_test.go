package monitor

import (
	"bytes"
	"encoding/json"
	"testing"

	"l15cache/internal/metrics"
)

// TestObservabilityIntegration wires a fresh registry and tracer into an
// SoC, runs a way-demanding program, publishes the monitor's analysis of
// the recording, and asserts the SDU reassignment latency lands in the
// histogram and the tracer records the Walloc events — the end-to-end path
// the -metrics/-trace flags expose.
func TestObservabilityIntegration(t *testing.T) {
	s := newSoC(t)
	reg := metrics.NewRegistry()
	var trace bytes.Buffer
	tr := metrics.NewTracer(&trace)
	s.Instrument(reg, tr)
	rec := runRecorded(t, s, demandProg)
	Analyze(rec, 32, s.Clusters[0].L15.Ticks()).Publish(reg)

	snap := reg.Snapshot()
	h, ok := snap.Histograms["soc.cluster0.l15.sdu_config_latency_cycles"]
	if !ok {
		t.Fatalf("SDU latency histogram missing; histograms: %v", keys(snap.Histograms))
	}
	if h.Count == 0 {
		t.Fatal("SDU latency histogram recorded no reassignments")
	}
	if h.Max < 1 {
		t.Fatalf("SDU latency max = %v, want >= 1 cycle", h.Max)
	}
	if snap.Gauges["monitor.way_utilization"] <= 0 {
		t.Fatal("monitor published no way utilisation")
	}
	if snap.Counters["monitor.reconfigurations"] == 0 {
		t.Fatal("monitor recorded no reconfigurations")
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name string }
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var assigns, satisfied int
	for _, ev := range events {
		switch ev.Name {
		case "way.assign":
			assigns++
		case "demand.satisfied":
			satisfied++
		}
	}
	if assigns < 4 {
		t.Fatalf("way.assign events = %d, want >= 4 (one per granted way)", assigns)
	}
	if satisfied == 0 {
		t.Fatal("no demand.satisfied event traced")
	}
}

func keys(m map[string]metrics.HistogramSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
