package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"l15cache/internal/metrics"
)

// samplerOver builds a manual-tick sampler over a private registry so
// tests control exactly when samples are captured.
func samplerOver(r *metrics.Registry, w io.Writer) *Sampler {
	return NewSampler(r.Snapshot, time.Hour, w)
}

// decodeSeries parses a JSONL sample stream.
func decodeSeries(t *testing.T, data []byte) []Sample {
	t.Helper()
	var out []Sample
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var sample Sample
		if err := json.Unmarshal(sc.Bytes(), &sample); err != nil {
			t.Fatalf("line %d %q: %v", len(out), sc.Text(), err)
		}
		out = append(out, sample)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSamplerDeltas(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("work.items")
	idle := r.Counter("work.idle")
	g := r.Gauge("work.progress")
	h := r.Histogram("work.latency", []float64{1, 10})

	s := samplerOver(r, io.Discard)
	c.Add(5)
	idle.Add(1)
	g.Set(0.25)
	h.Observe(0.5)
	h.Observe(5)
	first := s.SampleNow()

	// The first sample treats the whole cumulative value as the delta.
	if first.Seq != 0 || first.Counters["work.items"] != 5 || first.Deltas["work.items"] != 5 {
		t.Errorf("first sample: %+v", first)
	}
	if first.Gauges["work.progress"] != 0.25 {
		t.Errorf("gauge = %v", first.Gauges["work.progress"])
	}
	if first.Counters["work.latency.count"] != 2 {
		t.Errorf("folded histogram count = %v", first.Counters["work.latency.count"])
	}
	if first.Gauges["work.latency.sum"] != 5.5 {
		t.Errorf("folded histogram sum = %v", first.Gauges["work.latency.sum"])
	}
	if _, ok := first.Gauges["work.latency.p50"]; !ok {
		t.Error("folded p50 missing")
	}

	c.Add(3)
	second := s.SampleNow()
	if second.Seq != 1 || second.Counters["work.items"] != 8 || second.Deltas["work.items"] != 3 {
		t.Errorf("second sample: %+v", second)
	}
	// An unmoved counter is omitted from Deltas but stays in Counters.
	if _, ok := second.Deltas["work.idle"]; ok {
		t.Error("zero delta not omitted")
	}
	if second.Counters["work.idle"] != 1 {
		t.Error("cumulative value lost for idle counter")
	}
}

func TestSamplerWriteJSONL(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("n")
	var buf bytes.Buffer
	s := samplerOver(r, &buf)
	for i := 0; i < 3; i++ {
		c.Add(2)
		s.SampleNow()
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	series := decodeSeries(t, buf.Bytes())
	if len(series) != 4 || series[0].Seq != 0 || series[3].Seq != 3 {
		t.Fatalf("JSONL series = %+v", series)
	}
	// Stop's final sample saw no new work: cumulative value, no delta.
	if last := series[3]; last.Counters["n"] != 6 || len(last.Deltas) != 0 {
		t.Errorf("final sample = %+v", last)
	}
}

// TestSamplerWritesWholeSeries takes 2,500 samples — more than a 250 ms
// sampler takes in ten minutes — and checks that the written series is
// complete: every seq from 0 once and in order, and the per-sample deltas
// summing to the final cumulative counters.
func TestSamplerWritesWholeSeries(t *testing.T) {
	const n = 2500
	r := metrics.NewRegistry()
	steady := r.Counter("steady")
	sparse := r.Counter("sparse")
	var buf bytes.Buffer
	s := samplerOver(r, &buf)
	for i := 0; i < n; i++ {
		steady.Add(uint64(i%3 + 1))
		if i%7 == 0 {
			sparse.Add(2)
		}
		s.SampleNow()
	}
	if err := s.Stop(); err != nil { // the final sample makes n+1
		t.Fatal(err)
	}

	series := decodeSeries(t, buf.Bytes())
	if len(series) != n+1 {
		t.Fatalf("wrote %d samples, want %d", len(series), n+1)
	}
	sums := map[string]uint64{}
	for i, sample := range series {
		if sample.Seq != uint64(i) {
			t.Fatalf("line %d: seq %d", i, sample.Seq)
		}
		for name, d := range sample.Deltas {
			sums[name] += d
		}
	}
	last := series[n].Counters
	for _, name := range []string{"steady", "sparse"} {
		if sums[name] != last[name] {
			t.Errorf("%s: deltas sum to %d, final counter %d", name, sums[name], last[name])
		}
	}
	if last["steady"] != steady.Load() || last["sparse"] != sparse.Load() {
		t.Errorf("final sample %v, registry steady=%d sparse=%d", last, steady.Load(), sparse.Load())
	}
}

func TestSamplerStartStopIdempotent(t *testing.T) {
	r := metrics.NewRegistry()
	var out syncBuffer
	s := NewSampler(r.Snapshot, time.Millisecond, &out)
	s.Start()
	s.Start() // second Start while running must be a no-op
	deadline := time.Now().Add(2 * time.Second)
	for out.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if out.Len() == 0 {
		t.Fatal("ticker loop wrote nothing")
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil { // double Stop must not panic or hang
		t.Fatal(err)
	}
	n := out.Len()
	time.Sleep(5 * time.Millisecond)
	if got := out.Len(); got != n {
		t.Errorf("sampler kept running after Stop: %d -> %d bytes", n, got)
	}
	s.Start() // restart after Stop must work
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	series := decodeSeries(t, out.Bytes())
	for i, sample := range series {
		if sample.Seq != uint64(i) {
			t.Fatalf("line %d: seq %d", i, sample.Seq)
		}
	}
}

func TestStartFlag(t *testing.T) {
	// Empty path: nil sampler, no-op flush.
	s, flush := StartFlag("")
	if s != nil {
		t.Error("StartFlag(\"\") returned a sampler")
	}
	if err := flush(); err != nil {
		t.Errorf("no-op flush: %v", err)
	}

	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	s, flush = StartFlag(path)
	if s == nil {
		t.Fatal("StartFlag returned nil sampler for a real path")
	}
	// Flush twice: idempotent, and the file holds at least the final
	// sample even though no ticker interval has elapsed.
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
		t.Error("second flush changed the file")
	}
	series := decodeSeries(t, data)
	if len(series) == 0 {
		t.Fatal("flush wrote an empty file")
	}
	// The merged default snapshot includes the runtime collector.
	if _, ok := series[0].Gauges["go.goroutines"]; !ok {
		t.Error("flushed sample missing go.goroutines")
	}
}

func TestSamplerWriteFileError(t *testing.T) {
	s, flush := StartFlag(filepath.Join(t.TempDir(), "no", "such", "dir.jsonl"))
	if s != nil {
		t.Error("StartFlag returned a sampler for an uncreatable file")
	}
	if err := flush(); err == nil {
		t.Error("-telemetry to a missing directory succeeded")
	}

	// A writer that fails: Stop reports the first error.
	r := metrics.NewRegistry()
	r.Counter("n").Add(1)
	sam := samplerOver(r, failWriter{})
	sam.SampleNow()
	if err := sam.Stop(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Stop over a failing writer = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// syncBuffer is a bytes.Buffer safe to read while the sampler's ticker
// goroutine writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
