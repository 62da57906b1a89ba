package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"l15cache/internal/metrics"
)

// point is one counter sample read back from a trace.
type point struct {
	ts    uint64
	value float64
}

// counterSeries parses a Chrome trace array and returns its "C" events
// grouped by series name, in file order.
func counterSeries(t *testing.T, data []byte) map[string][]point {
	t.Helper()
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TS   uint64 `json:"ts"`
		Args struct {
			Value float64 `json:"value"`
		} `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	out := map[string][]point{}
	for _, e := range events {
		if e.Ph == "C" {
			out[e.Name] = append(out[e.Name], point{e.TS, e.Args.Value})
		}
	}
	return out
}

// sampleInto builds a manual-tick sampler over a private registry that
// writes into a tracer over buf, so tests control exactly when samples
// are captured.
func sampleInto(r *metrics.Registry, buf *bytes.Buffer) (*Sampler, *metrics.Tracer) {
	tr := metrics.NewTracer(buf)
	return NewSampler(r.Snapshot, time.Hour, tr), tr
}

// closeTrace closes tr and returns the series it wrote to buf.
func closeTrace(t *testing.T, tr *metrics.Tracer, buf *bytes.Buffer) map[string][]point {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return counterSeries(t, buf.Bytes())
}

// TestSamplerDeltas checks that counters are sampled cumulatively, so a
// counter's increment between two samples is their difference, and that
// gauges and folded histograms are sampled too.
func TestSamplerDeltas(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("work.items")
	idle := r.Counter("work.idle")
	g := r.Gauge("work.progress")
	h := r.Histogram("work.latency", []float64{1, 10})

	var buf bytes.Buffer
	s, tr := sampleInto(r, &buf)
	c.Add(5)
	idle.Add(1)
	g.Set(0.25)
	h.Observe(0.5)
	h.Observe(5)
	s.SampleNow()
	c.Add(3)
	s.SampleNow()
	series := closeTrace(t, tr, &buf)

	items := series["work.items"]
	if len(items) != 2 || items[0].value != 5 || items[1].value-items[0].value != 3 {
		t.Errorf("work.items = %+v, want 5 then 8", items)
	}
	if items[0].ts > items[1].ts {
		t.Errorf("samples out of time order: %+v", items)
	}
	// An unmoved counter keeps its cumulative value.
	if idle := series["work.idle"]; len(idle) != 2 || idle[1].value != 1 {
		t.Errorf("work.idle = %+v, want 1 twice", idle)
	}
	if p := series["work.progress"]; len(p) != 2 || p[0].value != 0.25 {
		t.Errorf("gauge = %+v", p)
	}
	if n := series["work.latency.count"]; len(n) != 2 || n[0].value != 2 {
		t.Errorf("folded histogram count = %+v", n)
	}
	if sum := series["work.latency.sum"]; len(sum) != 2 || sum[0].value != 5.5 {
		t.Errorf("folded histogram sum = %+v", sum)
	}
	if len(series["work.latency.p50"]) != 2 || len(series["work.latency.p95"]) != 2 {
		t.Error("folded quantiles missing")
	}
}

// TestSamplerWritesWholeSeries takes 2,500 samples — more than a 250 ms
// sampler takes in ten minutes — and checks that the trace holds every
// one: each series has a point per sample, in time order, ending at the
// registry's final values.
func TestSamplerWritesWholeSeries(t *testing.T) {
	const n = 2500
	r := metrics.NewRegistry()
	steady := r.Counter("steady")
	sparse := r.Counter("sparse")
	var buf bytes.Buffer
	s, tr := sampleInto(r, &buf)
	for i := 0; i < n; i++ {
		steady.Add(uint64(i%3 + 1))
		if i%7 == 0 {
			sparse.Add(2)
		}
		s.SampleNow()
	}
	s.Stop() // the final sample makes n+1
	series := closeTrace(t, tr, &buf)

	for name, want := range map[string]uint64{"steady": steady.Load(), "sparse": sparse.Load()} {
		pts := series[name]
		if len(pts) != n+1 {
			t.Fatalf("%s: trace holds %d samples, want %d", name, len(pts), n+1)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].ts < pts[i-1].ts || pts[i].value < pts[i-1].value {
				t.Fatalf("%s: sample %d %+v goes back from %+v", name, i, pts[i], pts[i-1])
			}
		}
		if last := pts[n].value; last != float64(want) {
			t.Errorf("%s: final sample %v, registry %d", name, last, want)
		}
	}
}

func TestSamplerStartStopIdempotent(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("n").Add(1)
	var snaps atomic.Int64
	snap := func() metrics.Snapshot {
		snaps.Add(1)
		return r.Snapshot()
	}
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	s := NewSampler(snap, time.Millisecond, tr)
	s.Start() // samples at once
	s.Start() // second Start while running must be a no-op
	deadline := time.Now().Add(2 * time.Second)
	for snaps.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if snaps.Load() < 3 {
		t.Fatal("ticker loop took no sample")
	}
	s.Stop()
	s.Stop() // double Stop must not panic or hang
	n := snaps.Load()
	time.Sleep(5 * time.Millisecond)
	if got := snaps.Load(); got != n {
		t.Errorf("sampler kept running after Stop: %d -> %d samples", n, got)
	}
	s.Start() // restart after Stop must work
	s.Stop()
	pts := closeTrace(t, tr, &buf)["n"]
	if int64(len(pts)) != snaps.Load() {
		t.Errorf("trace holds %d samples of n, sampler took %d", len(pts), snaps.Load())
	}
}

// TestOpenFiles checks the tools' artifact path: with a trace path the
// trace is the process-wide one and holds the Go runtime series from
// the sampler's first sample to its final one before the closing
// bracket; a second flush changes nothing.
func TestOpenFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	flush, err := OpenFiles(metricsPath, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Trace() == nil {
		t.Error("OpenFiles did not install the trace")
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if again, _ := os.ReadFile(tracePath); !bytes.Equal(again, data) {
		t.Error("second flush changed the trace")
	}
	if n := len(counterSeries(t, data)["go.goroutines"]); n < 2 {
		t.Errorf("trace holds %d go.goroutines samples, want the first and the final one", n)
	}
	if _, err := os.Stat(metricsPath); err != nil {
		t.Errorf("-metrics not written: %v", err)
	}

	// Without a trace path nothing is sampled or opened.
	flush, err = OpenFiles("", "")
	if err != nil || flush() != nil || metrics.Trace() != nil {
		t.Errorf("OpenFiles(\"\", \"\") = %v, trace %v", err, metrics.Trace())
	}
}

func TestSamplerWriteFileError(t *testing.T) {
	if _, err := OpenFiles("", filepath.Join(t.TempDir(), "no", "such", "dir.json")); err == nil {
		t.Error("-trace to a missing directory succeeded")
	}

	// A writer that fails: the tracer's Close reports the first error.
	r := metrics.NewRegistry()
	r.Counter("n").Add(1)
	tr := metrics.NewTracer(failWriter{})
	s := NewSampler(r.Snapshot, time.Hour, tr)
	s.SampleNow()
	s.Stop()
	if err := tr.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close over a failing writer = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
