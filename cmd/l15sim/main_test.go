package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"l15cache/internal/flight"
)

// TestFailingRunFlushesArtifacts runs l15sim on a missing -program file,
// with -metrics, -trace and -flight: it must exit 1 and leave all three
// files complete. The test re-executes its own binary so main's exit
// ends the child.
func TestFailingRunFlushesArtifacts(t *testing.T) {
	if args := os.Getenv("L15SIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"l15sim"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("l15sim", flag.ExitOnError)
		main()
		os.Exit(0) // unreachable unless the run ignored its error
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	flightPath := filepath.Join(dir, "rec.jsonl")
	args := []string{"-program", filepath.Join(dir, "missing.s"), "-flight", flightPath, "-metrics", metricsPath, "-trace", tracePath}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunFlushesArtifacts$")
	cmd.Env = append(os.Environ(), "L15SIM_TEST_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1; output:\n%s", err, out)
	}
	var snapshot map[string]any
	readJSON(t, metricsPath, &snapshot)
	var events []map[string]any
	readJSON(t, tracePath, &events)
	if _, err := flight.ReadFile(flightPath); err != nil {
		t.Fatalf("flight recording: %v", err)
	}
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
