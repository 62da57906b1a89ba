package monitor

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/metrics"
)

// TestObservabilityIntegration wires a fresh registry and recorder into
// an SoC while a process-wide trace is open, runs a way-demanding
// program, publishes the monitor's analysis of the recording, and asserts
// the end-to-end path the -metrics/-flight/-trace flags expose: the SDU
// reassignment latency lands in the histogram, the Walloc's way grants
// land in the flight recording, and the host-time trace holds no
// simulated-time instant.
func TestObservabilityIntegration(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	tr, err := metrics.OpenTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	s := newSoC(t)
	reg := metrics.NewRegistry()
	rec := runRecorded(t, s, reg, demandProg)
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

	var assigns int
	for _, e := range rec.Events {
		if e.Kind == flight.KindSDU && e.Task < 0 && e.A == 1 {
			assigns++
		}
	}
	if assigns < 4 {
		t.Fatalf("recorded way assigns = %d, want >= 4 (one per granted way)", assigns)
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name, Ph string }
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	for _, ev := range events {
		if ev.Ph == "i" {
			t.Errorf("trace holds a simulated-time instant %q", ev.Name)
		}
	}
}

func keys(m map[string]metrics.HistogramSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
