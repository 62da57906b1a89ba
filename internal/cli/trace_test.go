package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"l15cache/internal/experiments"
	"l15cache/internal/kernel"
	"l15cache/internal/telemetry"
)

// ablationBody is the ablation command's sweep at reduced size (-dags 10
// -trials 5): the ζ, κ, priority and SDU-delay ablations, each printed
// to stdout.
func ablationBody(ctx context.Context, sw *Sweep) error {
	cfg := experiments.DefaultMakespanConfig()
	cfg.DAGs = 10
	cfg.Seed = sw.Seed
	cfg.Run = sw.Run
	zeta, err := experiments.AblateZeta(ctx, cfg, experiments.AblationZetaDefault())
	if err != nil {
		return err
	}
	kappa, err := experiments.AblateWayBytes(ctx, cfg, experiments.AblationWayBytesDefault())
	if err != nil {
		return err
	}
	prio, err := experiments.AblatePriorities(ctx, cfg)
	if err != nil {
		return err
	}
	delay, err := experiments.AblateConfigDelay(ctx, 5, sw.Seed, sw.Run, kernel.Events, experiments.AblationDelayDefault())
	if err != nil {
		return err
	}
	fmt.Println(zeta.Format())
	fmt.Println(kappa.Format())
	fmt.Println(prio.Format())
	fmt.Println(delay.Format())
	// The sweep finishes before the sampler's first tick; waiting 1.5
	// intervals puts at least one ticked sample into -trace before Main
	// writes -metrics, so a sampler that wrote into metrics.Default would
	// show.
	time.Sleep(telemetry.DefaultInterval * 3 / 2)
	return nil
}

// ablationChild is the re-executed side of the ablation tests: with
// CLI_TEST_ABLATION_ARGS set, the test binary runs ablationBody through
// Main with those arguments and exits.
func ablationChild() {
	if args := os.Getenv("CLI_TEST_ABLATION_ARGS"); args != "" {
		os.Args = append([]string{"ablation"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("ablation", flag.ExitOnError)
		Main("ablation", ablationBody)
		os.Exit(0)
	}
}

// runAblation re-executes the test binary as the reduced ablation sweep
// with -seed 1 -metrics and the extra flags, so each run starts from a
// fresh metrics.Default, and returns its stdout and -metrics bytes.
func runAblation(t *testing.T, dir, side string, extra ...string) (stdout, metrics []byte) {
	t.Helper()
	metricsPath := filepath.Join(dir, "metrics_"+side+".json")
	args := append([]string{"-seed", "1", "-metrics", metricsPath}, extra...)
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "CLI_TEST_ABLATION_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s run: %v\n%s", side, err, stderr.Bytes())
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	return out, data
}

// TestTraceDoesNotChangeMetrics runs the reduced ablation sweep with and
// without -trace: stdout and -metrics must be byte-identical, and the
// trace must be a JSON array holding the sweeps' trial.run spans.
func TestTraceDoesNotChangeMetrics(t *testing.T) {
	ablationChild()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	offOut, offMetrics := runAblation(t, dir, "off")
	onOut, onMetrics := runAblation(t, dir, "on", "-trace", tracePath)
	if !bytes.Equal(offOut, onOut) {
		t.Errorf("stdout differs with -trace:\noff:\n%s\non:\n%s", offOut, onOut)
	}
	if !bytes.Equal(offMetrics, onMetrics) {
		t.Errorf("-metrics differs with -trace:\noff: %s\non:  %s", offMetrics, onMetrics)
	}
	var trialRuns int
	for _, e := range readTrace(t, tracePath) {
		if e.Name == "trial.run" {
			trialRuns++
		}
	}
	if trialRuns == 0 {
		t.Error("trace holds no trial.run span")
	}
}

// TestTelemetryDoesNotChangeArtifacts runs the same reduced ablation
// sweep with and without the wall-clock sampler that -trace starts:
// stdout and -metrics must be byte-identical, and the trace must hold
// the sampler's go.* counter samples on the sweeps' timeline, its final
// sample at or after the last sweep span's end.
func TestTelemetryDoesNotChangeArtifacts(t *testing.T) {
	ablationChild()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	offOut, offMetrics := runAblation(t, dir, "off")
	onOut, onMetrics := runAblation(t, dir, "on", "-trace", tracePath)
	if len(offOut) == 0 || !bytes.Contains(offOut, []byte("ablation")) {
		t.Fatalf("sweep printed no report:\n%s", offOut)
	}
	if !bytes.Equal(offOut, onOut) {
		t.Errorf("stdout differs with the sampler:\noff:\n%s\non:\n%s", offOut, onOut)
	}
	if !bytes.Equal(offMetrics, onMetrics) {
		t.Errorf("-metrics differs with the sampler:\noff: %s\non:  %s", offMetrics, onMetrics)
	}

	var samples int
	var sweepEnd, lastSample uint64
	for _, e := range readTrace(t, tracePath) {
		switch {
		case e.Name == "sweep":
			sweepEnd = max(sweepEnd, e.TS+e.Dur)
		case e.Ph == "C" && e.Name == "go.heap_objects_bytes":
			samples++
			lastSample = max(lastSample, e.TS)
		}
	}
	// The first sample precedes the sweeps; the sleep in ablationBody
	// adds a ticked one and Main's flush the final one.
	if samples < 2 {
		t.Errorf("trace holds %d go.heap_objects_bytes samples, want at least 2", samples)
	}
	if lastSample < sweepEnd {
		t.Errorf("final sample at %d µs precedes the last sweep's end at %d µs", lastSample, sweepEnd)
	}
}
