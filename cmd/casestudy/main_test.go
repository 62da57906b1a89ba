package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlightAcrossWorkers runs casestudy -cores 8 -trials 4 -flight at
// -workers 1 and 2 and requires byte-identical recordings and stdout.
// Under -race it also checks that the recorder, which takes no lock, is
// written by one goroutine only. The test re-executes its own binary so
// each run gets a fresh flag set and process state.
func TestFlightAcrossWorkers(t *testing.T) {
	if args := os.Getenv("CASESTUDY_TEST_ARGS"); args != "" {
		os.Args = append([]string{"casestudy"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("casestudy", flag.ExitOnError)
		main()
		os.Exit(0) // a failed run exits 1 inside main
	}
	dir := t.TempDir()
	var recordings, tables [][]byte
	for _, workers := range []int{1, 2} {
		path := filepath.Join(dir, "rec"+strconv.Itoa(workers)+".jsonl")
		args := []string{"-cores", "8", "-trials", "4", "-flight", path, "-workers", strconv.Itoa(workers)}
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlightAcrossWorkers$")
		cmd.Env = append(os.Environ(), "CASESTUDY_TEST_ARGS="+strings.Join(args, "\n"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-workers %d: %v\n%s", workers, err, stderr.Bytes())
		}
		rec, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(rec, []byte(`{"flight":2,"events":`)) || bytes.Count(rec, []byte("\n")) < 2 {
			t.Fatalf("-workers %d: recording is empty or not version 2:\n%.200s", workers, rec)
		}
		recordings = append(recordings, rec)
		tables = append(tables, out)
	}
	if !bytes.Equal(recordings[0], recordings[1]) {
		t.Errorf("recordings differ between -workers 1 and 2: %d vs %d bytes", len(recordings[0]), len(recordings[1]))
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Errorf("stdout differs between -workers 1 and 2:\n%s\nvs\n%s", tables[0], tables[1])
	}
}

// TestRejectsNonPositiveStep checks that a -step the utilisation loop
// could never finish with (zero, negative, NaN) fails before any sweep
// starts.
func TestRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []string{"0", "-0.05", "NaN"} {
		requireRejected(t, step)
	}
}

// TestRejectsStepTooSmall checks the same for positive steps the loop
// cannot finish with: 1e-17 leaves 0.40 unchanged, and 1e-12 would ask
// for about 5·10^11 points.
func TestRejectsStepTooSmall(t *testing.T) {
	for _, step := range []string{"1e-17", "1e-12"} {
		requireRejected(t, step)
	}
}

// requireRejected runs casestudy -step step -flight -metrics and requires
// exit 1 within a minute, an error naming the flag, nothing on stdout, no
// flight recording (the representative trial runs before the sweep) and
// no rtsim trial in the metrics snapshot.
func requireRejected(t *testing.T, step string) {
	t.Helper()
	dir := t.TempDir()
	flightPath, metricsPath := filepath.Join(dir, "rec.jsonl"), filepath.Join(dir, "metrics.json")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFlightAcrossWorkers$")
	args := []string{"-step", step, "-flight", flightPath, "-metrics", metricsPath}
	cmd.Env = append(os.Environ(), "CASESTUDY_TEST_ARGS="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-step %s: err = %v, want exit status 1\n%s", step, err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "-step") || len(out) != 0 {
		t.Errorf("-step %s: stderr %q, stdout %q", step, stderr.String(), out)
	}
	if _, err := os.Stat(flightPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-step %s: a flight recording was written (stat: %v)", step, err)
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Counters map[string]uint64 }
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	if n := m.Counters["rtsim.trials"]; n != 0 {
		t.Errorf("-step %s: %d rtsim trials ran", step, n)
	}
}
