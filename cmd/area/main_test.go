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

	"l15cache/internal/area"
)

// TestFailingRunFlushesArtifacts runs area over an overhead comparison
// that fails, with -metrics and -trace: it must log the error, exit 1
// and leave both files complete. The test re-executes its own binary so
// main's exit ends the child.
func TestFailingRunFlushesArtifacts(t *testing.T) {
	if args := os.Getenv("AREA_TEST_ARGS"); args != "" {
		os.Args = append([]string{"area"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("area", flag.ExitOnError)
		runMain(func(area.TechParams) (area.OverheadReport, error) {
			return area.OverheadReport{}, errors.New("no SoC to compare")
		})
		os.Exit(0) // unreachable unless the run ignored its error
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	args := []string{"-metrics", metricsPath, "-trace", tracePath}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunFlushesArtifacts$")
	cmd.Env = append(os.Environ(), "AREA_TEST_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "area: no SoC to compare") {
		t.Errorf("error not logged with the command prefix:\n%s", out)
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
