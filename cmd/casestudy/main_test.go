package main

import (
	"bytes"
	"context"
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
// starts: exit 1, an error naming the flag, and nothing on stdout.
func TestRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []string{"0", "-0.05", "NaN"} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFlightAcrossWorkers$")
		cmd.Env = append(os.Environ(), "CASESTUDY_TEST_ARGS=-step\n"+step)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-step %s: err = %v, want exit status 1\n%s", step, err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), "-step") || len(out) != 0 {
			t.Errorf("-step %s: stderr %q, stdout %q", step, stderr.String(), out)
		}
	}
}
