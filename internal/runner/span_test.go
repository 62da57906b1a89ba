package runner

import (
	"context"
	"io"
	"regexp"
	"testing"
	"time"

	"l15cache/internal/metrics"
	"l15cache/internal/telemetry"
)

func TestSpanIDDeterministic(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for _, root := range []int64{0, 1, 42, -7} {
		for i := 0; i < 4; i++ {
			id := SpanID(root, i)
			if !hex16.MatchString(id) {
				t.Fatalf("SpanID(%d, %d) = %q, not 16 hex digits", root, i, id)
			}
			if id != SpanID(root, i) {
				t.Fatalf("SpanID(%d, %d) not stable", root, i)
			}
			if seen[id] {
				t.Fatalf("SpanID collision at (%d, %d)", root, i)
			}
			seen[id] = true
		}
	}
}

// TestSweepSpanEmission runs a real sweep and checks the span hierarchy
// in the process tracer: three spans per computed trial plus one sweep
// span, all carrying the deterministic span ID, plus the latency gauges
// in the operational registry.
func TestSweepSpanEmission(t *testing.T) {
	const name = "t/spans-emission" // unique component filter
	const trials = 7
	_, err := Map(context.Background(),
		Config{Name: name, RootSeed: 5, Options: Options{Workers: 3}},
		trials, square)
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	spanIDs := map[string]bool{}
	for _, e := range metrics.Trace.Events() {
		if e.Component != "runner/"+name {
			continue
		}
		byName[e.Name]++
		if e.Dur == 0 {
			t.Errorf("span %s has zero duration", e.Name)
		}
		if id, ok := e.ChromeArgs()["span"].(string); ok {
			spanIDs[id] = true
		}
	}
	for _, want := range []string{"trial.queue", "trial.run", "trial.reduce"} {
		if byName[want] != trials {
			t.Errorf("%s spans = %d, want %d", want, byName[want], trials)
		}
	}
	if byName["sweep"] != 1 {
		t.Errorf("sweep spans = %d, want 1", byName["sweep"])
	}
	for i := 0; i < trials; i++ {
		if !spanIDs[SpanID(5, i)] {
			t.Errorf("trial %d's deterministic span ID missing from trace args", i)
		}
	}

	rt := telemetry.Runtime.Snapshot()
	for _, g := range []string{
		"runner." + name + ".trial_run_p50_seconds",
		"runner." + name + ".trial_run_p95_seconds",
		"runner." + name + ".trial_run_p99_seconds",
		"runner." + name + ".worker_occupancy",
	} {
		if _, ok := rt.Gauges[g]; !ok {
			t.Errorf("operational gauge %s not published", g)
		}
	}
	if occ := rt.Gauges["runner."+name+".worker_occupancy"]; occ < 0 || occ > 1 {
		t.Errorf("worker occupancy = %v, want within [0, 1]", occ)
	}
	if h, ok := rt.Histograms["runner.trial_run_seconds"]; !ok || h.Count < trials {
		t.Errorf("runner.trial_run_seconds histogram = %+v", h)
	}
}

func TestExactPercentile(t *testing.T) {
	durs := []time.Duration{
		1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second,
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 2}, {0.95, 4}, {0.99, 4}, {0.25, 1}, {1.0, 4},
	} {
		if got := exactPercentile(durs, tc.q); got != tc.want {
			t.Errorf("exactPercentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := exactPercentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

// TestTelemetryDoesNotPerturbSweep is the acceptance criterion in code:
// the deterministic registry snapshot of a sweep is byte-identical with
// a live telemetry sampler running and without one.
func TestTelemetryDoesNotPerturbSweep(t *testing.T) {
	run := func(name string, withSampler bool) ([]byte, []float64) {
		reg := metrics.NewRegistry()
		var sam *telemetry.Sampler
		if withSampler {
			sam = telemetry.NewSampler(nil, time.Millisecond, io.Discard)
			sam.Start()
			defer func() {
				if err := sam.Stop(); err != nil {
					t.Error(err)
				}
			}()
		}
		res, err := Map(context.Background(),
			Config{Name: name, RootSeed: 99, Registry: reg, Options: Options{Workers: 4}},
			50,
			func(_ context.Context, s Shard) (float64, error) {
				return s.RNG().NormFloat64(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		data, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, res
	}

	// Same sweep name both times so the snapshots' instrument names match.
	const name = "t/telemetry-identity"
	offSnap, offRes := run(name, false)
	onSnap, onRes := run(name, true)
	if string(offSnap) != string(onSnap) {
		t.Errorf("metrics snapshot differs with telemetry on:\noff: %s\non:  %s", offSnap, onSnap)
	}
	for i := range offRes {
		if offRes[i] != onRes[i] {
			t.Fatalf("result %d differs with telemetry on: %v vs %v", i, offRes[i], onRes[i])
		}
	}
}
