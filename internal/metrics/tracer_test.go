package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, "x", "y", nil) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be an empty no-op sink")
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(uint64(i), "c", fmt.Sprintf("e%d", i), nil)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first after wrap)", i, ev.Cycle, want)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(uint64(i), fmt.Sprintf("w%d", w), "tick", nil)
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 800 {
		t.Fatalf("retained+dropped = %d, want 800", got)
	}
}

// TestChromeJSON checks the export is a valid trace_event array with one
// thread-name metadata record per component and instant events carrying the
// simulated cycle as ts.
func TestChromeJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(10, "l15.0", "way.assign", map[string]any{"way": 3})
	tr.Emit(20, "monitor", "sample", nil)
	tr.Emit(30, "l15.0", "way.revoke", nil)

	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("not valid JSON array: %v\n%s", err, data)
	}
	meta, instants := 0, 0
	for _, ev := range raw {
		switch ev["ph"] {
		case "M":
			meta++
		case "i":
			instants++
		}
	}
	if meta != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2 (one per component)", meta)
	}
	if instants != 3 {
		t.Fatalf("instant events = %d, want 3", instants)
	}

	// Empty tracer must still serialise as a (possibly empty) array.
	empty, err := NewTracer(1).ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(empty, &arr); err != nil || len(arr) != 0 {
		t.Fatalf("empty tracer export = %s (err %v), want []", empty, err)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(5, "c", "e", nil)
	path := t.TempDir() + "/t.json"
	if err := tr.WriteChrome(path); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := readJSON(path, &arr); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 { // metadata + instant
		t.Fatalf("exported %d events, want 2", len(arr))
	}
}

// TestTracerDroppedExposed checks satellite visibility of a wrapped ring:
// the snapshot carries trace.events / trace.dropped_events, and the Chrome
// export leads with a metadata record naming the drop count.
func TestTracerDroppedExposed(t *testing.T) {
	tr := NewTracer(2)
	reg := NewRegistry()
	tr.PublishMetrics(reg)
	for i := 0; i < 5; i++ {
		tr.Emit(uint64(i), "c", "e", nil)
	}
	s := reg.Snapshot()
	if got := s.Counters["trace.events"]; got != 2 {
		t.Errorf("trace.events = %d, want 2", got)
	}
	if got := s.Counters["trace.dropped_events"]; got != 3 {
		t.Errorf("trace.dropped_events = %d, want 3", got)
	}
	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("trace_dropped_events")) {
		t.Errorf("Chrome export missing drop metadata:\n%s", data)
	}
}

func TestEmitSpan(t *testing.T) {
	tr := NewTracer(8)
	tr.EmitSpan(100, 50, "runner/x", "trial.run", map[string]any{"span": "abc"})
	tr.EmitSpan(200, 0, "runner/x", "trial.queue", nil) // zero-width widens to 1
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Cycle != 100 || events[0].Dur != 50 {
		t.Errorf("span event = %+v", events[0])
	}
	if events[1].Dur != 1 {
		t.Errorf("zero-duration span rendered with Dur=%d, want 1", events[1].Dur)
	}

	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Ph  string  `json:"ph"`
		Ts  float64 `json:"ts"`
		Dur float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range doc {
		if e.Ph == "X" {
			found++
			if e.Dur <= 0 {
				t.Errorf("X slice with dur %v", e.Dur)
			}
		}
	}
	if found != 2 {
		t.Errorf("Chrome export has %d X slices, want 2", found)
	}
}

// TestEmitTrialSpan checks that a typed trial span exports exactly the
// args a map-carrying span with the same identity does.
func TestEmitTrialSpan(t *testing.T) {
	typed, mapped := NewTracer(4), NewTracer(4)
	typed.EmitTrialSpan(100, 0, "runner/x", "trial.run", 0xabc, 3)
	mapped.EmitSpan(100, 0, "runner/x", "trial.run",
		map[string]any{"span": "0000000000000abc", "trial": 3})
	a, err := typed.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mapped.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("typed trial span exports\n%s\nwant\n%s", a, b)
	}
}

// TestTracerGrowsOnDemand checks that the ring reserves nothing up front
// and still holds exactly its capacity once full.
func TestTracerGrowsOnDemand(t *testing.T) {
	tr := NewTracer(100)
	if len(tr.chunks) != 0 {
		t.Fatalf("new tracer reserved %d chunks", len(tr.chunks))
	}
	for i := 0; i < 250; i++ {
		tr.Emit(uint64(i), "c", "e", nil)
	}
	events := tr.Events()
	if len(events) != 100 || tr.Dropped() != 150 {
		t.Fatalf("retained %d, dropped %d; want 100, 150", len(events), tr.Dropped())
	}
	for i, ev := range events {
		if ev.Cycle != uint64(150+i) {
			t.Fatalf("event %d has cycle %d, want %d", i, ev.Cycle, 150+i)
		}
	}
}

// TestTracerChunkedRing fills a ring that spans several storage chunks,
// requires growth to leave the filled chunks where they are, and checks
// the retained suffix and its order after wrapping more than once.
func TestTracerChunkedRing(t *testing.T) {
	const capacity = 2*traceChunk + 500
	tr := NewTracer(capacity)
	for i := 0; i < 2*traceChunk; i++ {
		tr.Emit(uint64(i), "c", "e", nil)
	}
	first := &tr.chunks[0][0]
	for i := 2 * traceChunk; i < 3*capacity+7; i++ {
		tr.Emit(uint64(i), "c", "e", nil)
	}
	if len(tr.chunks) < 3 {
		t.Fatalf("ring of %d events is %d chunk(s); want several", capacity, len(tr.chunks))
	}
	if &tr.chunks[0][0] != first {
		t.Error("growing the ring moved a filled chunk")
	}
	events := tr.Events()
	if tr.Len() != capacity || len(events) != capacity || tr.Dropped() != 2*capacity+7 {
		t.Fatalf("retained %d (Len %d), dropped %d; want %d, %d", len(events), tr.Len(), tr.Dropped(), capacity, 2*capacity+7)
	}
	for i, ev := range events {
		if want := uint64(2*capacity + 7 + i); ev.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d", i, ev.Cycle, want)
		}
	}
}
