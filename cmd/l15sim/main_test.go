package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"l15cache/internal/flight"
)

// runChild runs main with the arguments in L15SIM_TEST_ARGS and exits
// when the test binary was re-executed as l15sim; otherwise it returns.
func runChild() {
	args := os.Getenv("L15SIM_TEST_ARGS")
	if args == "" {
		return
	}
	os.Args = append([]string{"l15sim"}, strings.Split(args, "\n")...)
	flag.CommandLine = flag.NewFlagSet("l15sim", flag.ExitOnError)
	main()
	os.Exit(0) // a failed run exits 1 inside main
}

// child returns the command that re-executes the test binary as l15sim
// with args, entering through the named test.
func child(ctx context.Context, test string, args []string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "L15SIM_TEST_ARGS="+strings.Join(args, "\n"))
	return cmd
}

// TestFailingRunFlushesArtifacts runs l15sim on a missing -program file,
// with -metrics, -trace and -flight: it must exit 1 and leave all three
// files complete. The test re-executes its own binary so main's exit
// ends the child.
func TestFailingRunFlushesArtifacts(t *testing.T) {
	runChild()
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	flightPath := filepath.Join(dir, "rec.jsonl")
	args := []string{"-program", filepath.Join(dir, "missing.s"), "-flight", flightPath, "-metrics", metricsPath, "-trace", tracePath}
	out, err := child(context.Background(), "TestFailingRunFlushesArtifacts", args).CombinedOutput()
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

// spinProgram takes and returns two L1.5 ways until the instruction
// budget runs out, so the SoC keeps recording way moves while the
// interrupt is handled.
const spinProgram = `
	li a0, 2
	li a1, 0
spin:
	demand a0
	demand a1
	j spin
`

// TestInterruptWritesMetricsAndTrace interrupts l15sim mid-run with
// -metrics, -trace and -flight: it must exit 130 with complete -metrics
// and -trace files and no -flight file, since only the goroutine running
// the SoC may read its recorder. Under -race it also fails on any race
// report from the child.
func TestInterruptWritesMetricsAndTrace(t *testing.T) {
	runChild()
	dir := t.TempDir()
	program := filepath.Join(dir, "spin.s")
	if err := os.WriteFile(program, []byte(spinProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	flightPath := filepath.Join(dir, "rec.jsonl")
	args := []string{"-program", program, "-max", "1000000000000", "-flight", flightPath, "-metrics", metricsPath, "-trace", tracePath}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := child(ctx, "TestInterruptWritesMetricsAndTrace", args)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The program's load line is printed just before the SoC runs.
	sc := bufio.NewScanner(stdout)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "core 0: ") {
	}
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("child exit = %v, want status 130; stderr:\n%s", err, stderr.String())
	}
	var snapshot map[string]any
	readJSON(t, metricsPath, &snapshot)
	var events []map[string]any
	readJSON(t, tracePath, &events)
	if _, err := os.Stat(flightPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("interrupted run wrote %s (stat: %v)", filepath.Base(flightPath), err)
	}
	if !strings.Contains(stderr.String(), "flight recording not written") {
		t.Errorf("stderr does not say the recording was not written:\n%s", stderr.String())
	}
	// Under -race the child reports data races to stderr but keeps its
	// exit status, so look for the reports: the interrupt handler reads
	// the registry while the SoC runs, and must read neither the flight
	// recorder nor the simulator's plain counters.
	for _, report := range strings.Split(stderr.String(), "==================") {
		if strings.Contains(report, "DATA RACE") {
			t.Errorf("the child raced:\n%s", report)
		}
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
