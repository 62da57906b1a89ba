package main

import (
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
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

// TestFailingRunFlushesArtifacts runs daggen on a missing -load file,
// with -metrics and -trace: it must exit 1 and leave both files
// complete. The test re-executes its own binary so main's exit ends the
// child.
func TestFailingRunFlushesArtifacts(t *testing.T) {
	if args := os.Getenv("DAGGEN_TEST_ARGS"); args != "" {
		os.Args = append([]string{"daggen"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("daggen", flag.ExitOnError)
		main()
		os.Exit(0) // unreachable unless the run ignored its error
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	args := []string{"-load", filepath.Join(dir, "missing.json"), "-metrics", metricsPath, "-trace", tracePath}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunFlushesArtifacts$")
	cmd.Env = append(os.Environ(), "DAGGEN_TEST_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1; output:\n%s", err, out)
	}
	var snapshot map[string]any
	readJSON(t, metricsPath, &snapshot)
	var events []map[string]any
	readJSON(t, tracePath, &events)
}

// readJSON requires path to hold one complete JSON value and decodes it
// into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s is not complete JSON: %v\n%s", filepath.Base(path), err, data)
	}
}
