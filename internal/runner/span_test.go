package runner

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
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

// traceEvent is the part of a Chrome trace record the span tests read.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
	Args struct {
		Span  string `json:"span"`
		Trial *int   `json:"trial"`
	} `json:"args"`
}

// traced runs sweep with a -trace file open and returns the events of
// component comp it left in the file, which must parse as a JSON array
// ("" keeps every event).
func traced(t *testing.T, comp string, sweep func()) []traceEvent {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := metrics.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	sweep()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all, out []traceEvent
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	for _, e := range all {
		if comp == "" || e.Cat == comp {
			out = append(out, e)
		}
	}
	return out
}

// TestSweepSpanEmission runs a real sweep with a trace open and checks
// the span hierarchy in its file: three spans per computed trial plus one
// sweep span, all carrying the deterministic span ID, plus the latency
// gauges in the operational registry.
func TestSweepSpanEmission(t *testing.T) {
	const name = "t/spans-emission" // unique component filter
	const trials = 7
	events := traced(t, "runner/"+name, func() {
		_, err := Map(context.Background(),
			Config{Name: name, RootSeed: 5, Options: Options{Workers: 3}},
			trials, square)
		if err != nil {
			t.Fatal(err)
		}
	})

	byName := map[string]int{}
	spanIDs := map[string]bool{}
	for _, e := range events {
		byName[e.Name]++
		if e.Dur == 0 {
			t.Errorf("span %s has zero duration", e.Name)
		}
		if e.Args.Span != "" {
			spanIDs[e.Args.Span] = true
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

// TestMapTraceKeepsFirstSpan runs a sweep of more spans than the ring
// the tracer once was (65,536 events) held and requires the file to keep
// every one of them, the first trial's queue span included.
func TestMapTraceKeepsFirstSpan(t *testing.T) {
	const name = "t/spans-long"
	const trials = 1<<16/3 + 1 // 3 spans a trial: 65,538 spans + the sweep
	events := traced(t, "runner/"+name, func() {
		_, err := Map(context.Background(),
			Config{Name: name, RootSeed: 3, Options: Options{Workers: 2}},
			trials, func(context.Context, Shard) (struct{}, error) { return struct{}{}, nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(events) != 3*trials+1 {
		t.Fatalf("trace holds %d spans of the sweep, want %d", len(events), 3*trials+1)
	}
	for _, e := range events {
		if e.Name == "trial.queue" && e.Args.Trial != nil && *e.Args.Trial == 0 {
			return
		}
	}
	t.Error("trial 0's trial.queue span is missing from the trace")
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
		if withSampler {
			sam := telemetry.NewSampler(nil, time.Millisecond, metrics.NewTracer(io.Discard))
			sam.Start()
			defer sam.Stop()
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

// TestConsecutiveSweepsLayOutEndToEnd runs two Map calls under one trace
// and requires the second sweep span to start at or after the first one
// ends: every sweep is stamped from the trace's one origin.
func TestConsecutiveSweepsLayOutEndToEnd(t *testing.T) {
	const name = "t/spans-consecutive"
	events := traced(t, "runner/"+name, func() {
		for i := 0; i < 2; i++ {
			_, err := Map(context.Background(),
				Config{Name: name, RootSeed: int64(i), Options: Options{Workers: 2}},
				20, square)
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	var sweeps []traceEvent
	for _, e := range events {
		if e.Name == "sweep" {
			sweeps = append(sweeps, e)
		}
	}
	if len(sweeps) != 2 {
		t.Fatalf("trace holds %d sweep spans, want 2", len(sweeps))
	}
	if end := sweeps[0].TS + sweeps[0].Dur; sweeps[1].TS < end {
		t.Errorf("second sweep starts at %d µs, before the first ends at %d µs", sweeps[1].TS, end)
	}
	for _, e := range events {
		if e.Ph == "X" && e.Name != "sweep" && e.TS < sweeps[0].TS {
			t.Errorf("%s span at %d µs precedes its sweep at %d µs", e.Name, e.TS, sweeps[0].TS)
		}
	}
}

// TestSamplerBesideSweepSpans runs a fast sampler into the process-wide
// trace while a parallel sweep emits its spans there (run it under
// -race): the file must hold both on one timeline, the sampler's final
// sample after the sweep.
func TestSamplerBesideSweepSpans(t *testing.T) {
	const name = "t/spans-sampled"
	events := traced(t, "", func() {
		sam := telemetry.NewSampler(nil, time.Millisecond, metrics.Trace())
		sam.Start()
		_, err := Map(context.Background(),
			Config{Name: name, RootSeed: 1, Options: Options{Workers: 4}},
			200, func(_ context.Context, s Shard) (float64, error) {
				time.Sleep(50 * time.Microsecond)
				return s.RNG().Float64(), nil
			})
		sam.Stop()
		if err != nil {
			t.Fatal(err)
		}
	})
	var sweepEnd, lastSample uint64
	samples := 0
	for _, e := range events {
		switch {
		case e.Cat == "runner/"+name && e.Name == "sweep":
			sweepEnd = e.TS + e.Dur
		case e.Ph == "C" && e.Name == "go.goroutines":
			samples++
			lastSample = max(lastSample, e.TS)
		}
	}
	if samples < 2 {
		t.Fatalf("trace holds %d go.goroutines samples, want at least 2", samples)
	}
	if sweepEnd == 0 || lastSample < sweepEnd {
		t.Errorf("final sample at %d µs, sweep ends at %d µs", lastSample, sweepEnd)
	}
}
