package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// traceEvent is the part of a Chrome trace record the tests inspect.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// parseTrace requires data to be a Chrome trace_event JSON array.
func parseTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("not a valid JSON array: %v\n%s", err, data)
	}
	return evs
}

// closed closes tr and returns what it wrote to buf.
func closed(t *testing.T, tr *Tracer, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return parseTrace(t, buf.Bytes())
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.EmitSpan(1, 2, "x", "y", nil) // must not panic
	tr.EmitTrialSpan(1, 2, "x", "y", 3, 4)
	tr.EmitCounter(1, "x", "y", 5)
	if ts := tr.Stamp(time.Now()); ts != 0 {
		t.Errorf("nil Stamp = %d, want 0", ts)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close = %v", err)
	}
}

// TestTracerNilAllocatesNothing pins the cost of tracing off: emitting
// into the nil tracer a run without -trace holds allocates nothing.
func TestTracerNilAllocatesNothing(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.EmitTrialSpan(1, 2, "runner/x", "trial.run", 3, 4)
		tr.EmitSpan(1, 2, "runner/x", "sweep", nil)
	}); n != 0 {
		t.Fatalf("nil tracer allocates %v per emission pair", n)
	}
}

// TestTracerKeepsEveryEvent emits more events than the largest ring the
// tracer used to keep and requires all of them, first to last, in the
// file.
func TestTracerKeepsEveryEvent(t *testing.T) {
	const n = 1<<16 + 10
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i := 0; i < n; i++ {
		tr.EmitSpan(uint64(i), 1, "c", "e", nil)
	}
	evs := closed(t, tr, &buf)
	if len(evs) != n+1 { // + the thread_name row
		t.Fatalf("trace holds %d events, want %d", len(evs), n+1)
	}
	for i, ev := range evs[1:] {
		if ev.TS != uint64(i) {
			t.Fatalf("event %d has ts %d, want %d", i, ev.TS, i)
		}
	}
}

// TestTracerStreamsBeforeClose checks that events reach the writer while
// the run goes on, not only at Close.
func TestTracerStreamsBeforeClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i := 0; buf.Len() == 0; i++ {
		if i == 1<<12 {
			t.Fatal("4096 events emitted and nothing written")
		}
		tr.EmitCounter(uint64(i), "c", "e", float64(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	parseTrace(t, buf.Bytes())
}

// TestTracerConcurrentEmit emits from several goroutines (run it under
// -race) and requires a parseable array holding every event, with one
// thread_name row per component ahead of that component's events.
func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.EmitCounter(uint64(i), fmt.Sprintf("w%d", w), "tick", float64(i))
				tr.EmitTrialSpan(uint64(i), 1, fmt.Sprintf("w%d", w), "trial.run", uint64(i), i)
			}
		}(w)
	}
	wg.Wait()
	rows := map[int]bool{}
	events := 0
	for _, ev := range closed(t, tr, &buf) {
		if ev.Ph == "M" {
			rows[ev.TID] = true
			continue
		}
		if !rows[ev.TID] {
			t.Fatalf("event %+v precedes its thread_name row", ev)
		}
		events++
	}
	if len(rows) != 8 || events != 1600 {
		t.Fatalf("trace holds %d rows and %d events, want 8 and 1600", len(rows), events)
	}
}

// TestChromeJSON checks the export is a valid trace_event array with one
// thread-name metadata record per component, naming it, ahead of that
// component's events.
func TestChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.EmitSpan(10, 5, "runner/x", "sweep", nil)
	tr.EmitCounter(20, "telemetry", "go.goroutines", 3)
	tr.EmitSpan(30, 5, "runner/x", "sweep", nil)

	names := map[int]any{}
	events := 0
	for _, ev := range closed(t, tr, &buf) {
		if ev.Ph == "M" {
			names[ev.TID] = ev.Args["name"]
			continue
		}
		if names[ev.TID] != ev.Cat {
			t.Errorf("event %+v is on row %v", ev, names[ev.TID])
		}
		events++
	}
	if len(names) != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2 (one per component)", len(names))
	}
	if events != 3 {
		t.Fatalf("events = %d, want 3", events)
	}

	// An empty trace still closes as an array.
	buf.Reset()
	if evs := closed(t, NewTracer(&buf), &buf); len(evs) != 0 {
		t.Fatalf("empty tracer export = %s, want []", buf.Bytes())
	}
}

// TestWriteChrome checks OpenTrace's file and its process-wide
// installation, which lasts until Close.
func TestWriteChrome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if Trace() != tr {
		t.Fatal("OpenTrace did not install its tracer")
	}
	Trace().EmitCounter(5, "c", "e", 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if Trace() != nil {
		t.Fatal("Close left the tracer installed")
	}
	tr.EmitCounter(6, "c", "late", 2) // discarded
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	var arr []map[string]any
	if err := readJSON(path, &arr); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 { // metadata + counter sample
		t.Fatalf("exported %d events, want 2", len(arr))
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// A write error surfaces from Close instead of leaving a truncated trace
// that reports success.
func TestTracerReportsWriteError(t *testing.T) {
	tr := NewTracer(failingWriter{})
	tr.EmitCounter(1, "c", "e", 1)
	if err := tr.Close(); err == nil {
		t.Fatal("Close = nil after a failed write")
	}
}

func TestEmitSpan(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.EmitSpan(100, 50, "runner/x", "trial.run", map[string]any{"span": "abc"})
	tr.EmitSpan(200, 0, "runner/x", "trial.queue", nil) // zero-width widens to 1
	var spans []traceEvent
	for _, ev := range closed(t, tr, &buf) {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("Chrome export has %d X slices, want 2", len(spans))
	}
	if spans[0].TS != 100 || spans[0].Dur != 50 {
		t.Errorf("span event = %+v", spans[0])
	}
	if spans[1].Dur != 1 {
		t.Errorf("zero-duration span rendered with dur %d, want 1", spans[1].Dur)
	}
}

// TestEmitTrialSpan checks that a typed trial span exports exactly the
// args a map-carrying span with the same identity does.
func TestEmitTrialSpan(t *testing.T) {
	var a, b bytes.Buffer
	typed, mapped := NewTracer(&a), NewTracer(&b)
	typed.EmitTrialSpan(100, 0, "runner/x", "trial.run", 0xabc, 3)
	mapped.EmitSpan(100, 0, "runner/x", "trial.run",
		map[string]any{"span": "0000000000000abc", "trial": 3})
	closed(t, typed, &a)
	closed(t, mapped, &b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("typed trial span exports\n%s\nwant\n%s", a.Bytes(), b.Bytes())
	}
}

// TestStampOneOrigin checks that the first reading stamped is the
// timeline's 0, later readings are µs after it, and earlier ones clamp.
func TestStampOneOrigin(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	origin := time.Unix(1000, 0)
	if ts := tr.Stamp(origin); ts != 0 {
		t.Errorf("origin stamps %d, want 0", ts)
	}
	if ts := tr.Stamp(origin.Add(1500 * time.Microsecond)); ts != 1500 {
		t.Errorf("origin+1.5ms stamps %d, want 1500", ts)
	}
	if ts := tr.Stamp(origin.Add(-time.Second)); ts != 0 {
		t.Errorf("a reading before the origin stamps %d, want 0", ts)
	}
}

// TestEmitCounter checks a counter sample's Chrome form: a "C" event
// named after its series, carrying the value as its one arg.
func TestEmitCounter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.EmitCounter(42, "telemetry", "go.goroutines", 7)
	evs := closed(t, tr, &buf)
	if len(evs) != 2 {
		t.Fatalf("trace holds %d events, want a row and a sample", len(evs))
	}
	ev := evs[1]
	if ev.Ph != "C" || ev.Name != "go.goroutines" || ev.TS != 42 || ev.Args["value"] != 7.0 {
		t.Errorf("counter event = %+v", ev)
	}
}
