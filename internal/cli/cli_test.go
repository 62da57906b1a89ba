package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"l15cache/internal/runner"
)

// artifacts returns the sweep flags requesting every artifact file under
// dir, and the paths they name plus a flight path, which a body passes to
// Sweep.Flight.
func artifacts(dir string) (args []string, paths map[string]string) {
	paths = map[string]string{
		"metrics":   filepath.Join(dir, "metrics.json"),
		"trace":     filepath.Join(dir, "trace.json"),
		"telemetry": filepath.Join(dir, "telemetry.jsonl"),
		"flight":    filepath.Join(dir, "flight.jsonl"),
	}
	args = []string{"-metrics", paths["metrics"], "-trace", paths["trace"], "-telemetry", paths["telemetry"]}
	return args, paths
}

func testSweep() *Sweep {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return newSweep(fs)
}

func requireFiles(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil {
			t.Errorf("artifact not written: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("artifact %s is empty", p)
		}
	}
}

// A body that fails still leaves every requested artifact behind, and
// its error comes back.
func TestExecFlushesWhenBodyFails(t *testing.T) {
	args, paths := artifacts(t.TempDir())
	boom := errors.New("boom")
	err := testSweep().exec(context.Background(), args, func(_ context.Context, s *Sweep) error {
		s.Flight(paths["flight"])
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Exec = %v, want the body's error", err)
	}
	requireFiles(t, paths["metrics"], paths["trace"], paths["telemetry"], paths["flight"])
}

// An interrupted sweep (runner.Canceled) still writes its partial files.
func TestExecFlushesWhenCancelled(t *testing.T) {
	args, paths := artifacts(t.TempDir())
	args = append(args, "-workers", "1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := testSweep().exec(ctx, args, func(ctx context.Context, s *Sweep) error {
		s.Flight(paths["flight"])
		_, err := runner.Map(ctx, runner.Config{Name: "cli/cancel", Options: s.Run}, 4,
			func(_ context.Context, sh runner.Shard) (int, error) { return sh.Index, nil })
		return err
	})
	var canceled *runner.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("Exec = %v, want *runner.Canceled", err)
	}
	requireFiles(t, paths["metrics"], paths["trace"], paths["telemetry"], paths["flight"])
}

// One unwritable artifact does not stop the others, and every failure is
// reported next to the body's error.
func TestExecReportsEveryFlushError(t *testing.T) {
	dir := t.TempDir()
	args, paths := artifacts(dir)
	// A path below a regular file fails for every user, root included.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	paths["metrics"] = filepath.Join(blocker, "metrics.json")
	paths["flight"] = filepath.Join(blocker, "flight.jsonl")
	args = append(args, "-metrics", paths["metrics"])

	boom := errors.New("boom")
	err := testSweep().exec(context.Background(), args, func(_ context.Context, s *Sweep) error {
		s.Flight(paths["flight"])
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Exec = %v, want the body's error kept", err)
	}
	for _, want := range []string{paths["metrics"], paths["flight"]} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v does not report the failed write of %s", err, want)
		}
	}
	requireFiles(t, paths["trace"], paths["telemetry"])
}

// A trial cache that cannot be built fails the run before the body, but
// the sampler already started and its series is still written.
func TestExecFlushesWhenMemoFails(t *testing.T) {
	dir := t.TempDir()
	args, paths := artifacts(dir)
	memoDir := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(memoDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	args = append(args, "-memo-dir", memoDir)
	ran := false
	err := testSweep().exec(context.Background(), args, func(context.Context, *Sweep) error {
		ran = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "memo") {
		t.Fatalf("Exec = %v, want the cache error", err)
	}
	if ran {
		t.Error("body ran without its trial cache")
	}
	requireFiles(t, paths["metrics"], paths["trace"], paths["telemetry"])
}

func TestExecFillsSweepFromFlags(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.json")
	args := []string{"-seed", "7", "-workers", "3", "-checkpoint", cp, "-memo"}
	err := testSweep().exec(context.Background(), args, func(_ context.Context, s *Sweep) error {
		if s.Seed != 7 || s.Run.Workers != 3 || s.Run.Checkpoint != cp || s.Run.Memo == nil {
			t.Errorf("sweep = seed %d, run %+v", s.Seed, s.Run)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Main exits non-zero when the run fails, after writing the artifacts.
// The test re-executes its own binary so Main's os.Exit ends the child.
func TestMainExitsNonZeroOnError(t *testing.T) {
	if metricsPath := os.Getenv("CLI_TEST_MAIN_METRICS"); metricsPath != "" {
		os.Args = []string{"sweep", "-metrics", metricsPath}
		flag.CommandLine = flag.NewFlagSet("sweep", flag.ExitOnError)
		Main("sweep", func(context.Context, *Sweep) error { return errors.New("boom") })
		os.Exit(0) // unreachable unless Main ignored the error
	}
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitsNonZeroOnError$")
	cmd.Env = append(os.Environ(), "CLI_TEST_MAIN_METRICS="+metricsPath)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "sweep: boom") {
		t.Errorf("error not logged with the command prefix:\n%s", out)
	}
	requireFiles(t, metricsPath)
}
