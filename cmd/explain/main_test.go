package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/forensics"
)

// TestWriteChromeWayCounters checks that a hardware recording, which has
// no dispatch spans, still yields one counter series per cluster tracing
// its assigned ways.
func TestWriteChromeWayCounters(t *testing.T) {
	sdu := func(tick float64, cluster, way int32, assign float64) flight.Event {
		return flight.Event{Kind: flight.KindSDU, Time: tick, Task: -1, Job: -1,
			Node: way, Core: 0, Cluster: cluster, Wave: -1, A: assign}
	}
	m := forensics.Build(flight.Recording{Events: []flight.Event{
		sdu(1, 0, 0, 1), sdu(2, 0, 1, 1), sdu(3, 1, 0, 1), sdu(9, 0, 0, 0),
	}})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, data)
	}
	series := map[string][]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "C" {
			t.Fatalf("unexpected %q event %q", e.Ph, e.Name)
		}
		series[e.Name] = append(series[e.Name], e.Args["assigned"])
	}
	if got := series["cluster 0 ways"]; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("cluster 0 series = %v, want [1 2 1]", got)
	}
	if got := series["cluster 1 ways"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("cluster 1 series = %v, want [1]", got)
	}
}
