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
	// intervals puts at least one ticked sample before Main writes
	// -metrics, so a sampler that wrote into metrics.Default would show.
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

// TestTelemetryDoesNotChangeArtifacts runs the same reduced ablation
// sweep through Main with and without -telemetry and requires identical
// stdout and -metrics bytes, plus a telemetry series of at least two
// samples.
func TestTelemetryDoesNotChangeArtifacts(t *testing.T) {
	ablationChild()
	dir := t.TempDir()
	telemetryPath := filepath.Join(dir, "telemetry.jsonl")
	offOut, offMetrics := runAblation(t, dir, "off")
	onOut, onMetrics := runAblation(t, dir, "on", "-telemetry", telemetryPath)
	if len(offOut) == 0 || !bytes.Contains(offOut, []byte("ablation")) {
		t.Fatalf("sweep printed no report:\n%s", offOut)
	}
	if !bytes.Equal(offOut, onOut) {
		t.Errorf("stdout differs with -telemetry:\noff:\n%s\non:\n%s", offOut, onOut)
	}
	if !bytes.Equal(offMetrics, onMetrics) {
		t.Errorf("-metrics differs with -telemetry:\noff: %s\non:  %s", offMetrics, onMetrics)
	}
	series, err := os.ReadFile(telemetryPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(series, []byte("\n")); n < 2 {
		t.Errorf("telemetry file holds %d samples, want a ticked one and the final one", n)
	}
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
	if n := countTrace(t, tracePath)["trial.run"]; n == 0 {
		t.Error("trace holds no trial.run span")
	}
}
