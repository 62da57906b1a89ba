package main

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/forensics"
	"l15cache/internal/schedsim"
	"l15cache/internal/workload"
)

// TestSpansCSV checks the -csv export of a recorded run: a header, then
// one row per node with its name and ordered phase boundaries.
func TestSpansCSV(t *testing.T) {
	task, err := workload.Synthetic(rand.New(rand.NewSource(2)), workload.DefaultSynthParams())
	if err != nil {
		t.Fatal(err)
	}
	prop, err := schedsim.NewProposed(task.Clone(), 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	if _, err := schedsim.Run(prop.Alloc, prop, schedsim.Options{Cores: 8, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(spansCSV(forensics.Build(rec.Snapshot()), task), "\n"), "\n")
	if lines[0] != "instance,core,node,name,start,fetch_end,end" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+len(task.Nodes) {
		t.Fatalf("%d rows, want %d", len(lines)-1, len(task.Nodes))
	}
	seen := make(map[string]bool)
	for _, row := range lines[1:] {
		f := strings.Split(row, ",")
		if len(f) != 7 || f[0] != "0" || seen[f[2]] {
			t.Fatalf("bad or repeated row %q", row)
		}
		seen[f[2]] = true
		id, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatal(err)
		}
		if want := task.Node(dag.NodeID(id)).Name; f[3] != want {
			t.Errorf("node %d named %q, want %q", id, f[3], want)
		}
	}
}
