package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Event is one traced occurrence inside the simulated system: a Walloc way
// reassignment, a monitor sample, a scheduler dispatch. Cycle is the
// component's notion of time (SDU ticks, core cycles or simulated task time
// scaled by the caller). A non-zero Dur turns the event into a span
// covering [Cycle, Cycle+Dur] — the form the runner's sweep/trial spans
// use, where both fields are wall-clock microseconds since sweep start.
type Event struct {
	Cycle     uint64
	Dur       uint64
	Component string
	Name      string
	Args      map[string]any

	// Span and Trial identify the runner trial a span covers when
	// IsTrial is set. They stay typed so a trial span allocates nothing
	// when emitted; ChromeArgs renders them as {"span", "trial"} args.
	Span    uint64
	Trial   int
	IsTrial bool
}

// ChromeArgs returns the event's Chrome trace args: Args, or for a trial
// span the span ID as 16 hex digits and the trial index.
func (e *Event) ChromeArgs() map[string]any {
	if !e.IsTrial {
		return e.Args
	}
	return map[string]any{"span": FormatSpanID(e.Span), "trial": e.Trial}
}

// FormatSpanID renders a trial span's identity as 16 hex digits, the form
// trace args and operator tooling join on.
func FormatSpanID(span uint64) string { return fmt.Sprintf("%016x", span) }

// DefaultTraceCap is the ring capacity of the Default tracer.
const DefaultTraceCap = 1 << 16

// traceChunk is the size a Tracer's storage chunk grows to before the
// next chunk starts.
const traceChunk = 1024

// Tracer is a fixed-capacity ring buffer of events. The buffer grows on
// demand up to its capacity, in chunks: only the last chunk grows, so
// growing never copies the older events or holds them twice. When full,
// the oldest events are overwritten and counted as dropped. A nil *Tracer
// is a valid no-op sink, so components can hold one unconditionally.
type Tracer struct {
	mu       sync.Mutex
	chunks   [][]Event // the ring, in order, once full
	n        int       // retained events
	capacity int
	ci, off  int // once full: the oldest event is chunks[ci][off]
	dropped  uint64
}

// Trace is the process-wide tracer the cmd/ tools serialise with -trace.
var Trace = NewTracer(DefaultTraceCap)

func init() { Trace.PublishMetrics(Default) }

// PublishMetrics registers a collector on r that mirrors the tracer's
// retained and dropped event counts into the `trace.events` and
// `trace.dropped_events` counters at snapshot time, so a wrapped ring is
// visible in every -metrics artifact instead of silently truncating.
func (t *Tracer) PublishMetrics(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.RegisterCollector(func(r *Registry) {
		r.Counter("trace.events").Store(uint64(t.Len()))
		r.Counter("trace.dropped_events").Store(t.Dropped())
	})
}

// NewTracer returns a tracer holding up to capacity events (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity}
}

// Emit records one instant event. Safe for concurrent use and on a nil
// tracer.
func (t *Tracer) Emit(cycle uint64, component, name string, args map[string]any) {
	t.emit(Event{Cycle: cycle, Component: component, Name: name, Args: args})
}

// EmitSpan records one duration event covering [cycle, cycle+dur] — a
// Chrome "complete" (X) slice. The runner's sweep/trial spans use it with
// wall-clock microseconds; simulated components may use it with cycle
// spans. Safe for concurrent use and on a nil tracer.
func (t *Tracer) EmitSpan(cycle, dur uint64, component, name string, args map[string]any) {
	t.emitSpan(Event{Cycle: cycle, Dur: dur, Component: component, Name: name, Args: args})
}

// EmitTrialSpan is EmitSpan for a runner trial: span (the trial's seed)
// and trial (its index) become the event's Chrome args at export, so the
// emission itself allocates nothing.
func (t *Tracer) EmitTrialSpan(cycle, dur uint64, component, name string, span uint64, trial int) {
	t.emitSpan(Event{Cycle: cycle, Dur: dur, Component: component, Name: name,
		Span: span, Trial: trial, IsTrial: true})
}

func (t *Tracer) emitSpan(ev Event) {
	if ev.Dur == 0 {
		ev.Dur = 1 // a zero-width X slice is invisible in the viewers
	}
	t.emit(ev)
}

func (t *Tracer) emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.n < t.capacity {
		if k := len(t.chunks); k == 0 || len(t.chunks[k-1]) == cap(t.chunks[k-1]) && cap(t.chunks[k-1]) >= traceChunk {
			t.chunks = append(t.chunks, nil)
		}
		last := &t.chunks[len(t.chunks)-1]
		*last = append(*last, ev)
		t.n++
	} else {
		t.chunks[t.ci][t.off] = ev
		if t.off++; t.off == len(t.chunks[t.ci]) {
			t.ci, t.off = (t.ci+1)%len(t.chunks), 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	if len(t.chunks) == 0 {
		return out
	}
	out = append(out, t.chunks[t.ci][t.off:]...)
	for _, c := range t.chunks[t.ci+1:] {
		out = append(out, c...)
	}
	for _, c := range t.chunks[:t.ci] {
		out = append(out, c...)
	}
	return append(out, t.chunks[t.ci][:t.off]...)
}

// Dropped returns how many events were overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// chromeEvent is one record of the Chrome trace_event format ("JSON array
// format"), viewable in chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"` // simulated cycles, displayed as µs
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeJSON renders the retained events as a Chrome trace_event array.
// Each distinct component becomes one "thread" row, named via metadata
// events, so chrome://tracing shows per-component swimlanes.
func (t *Tracer) ChromeJSON() ([]byte, error) {
	events := t.Events()
	tids := map[string]int{}
	var out []chromeEvent
	// A wrapped ring means the trace is a suffix of the run; say so in the
	// file itself rather than letting the viewer imply completeness.
	if d := t.Dropped(); d > 0 {
		out = append(out, chromeEvent{
			Name:  "trace_dropped_events",
			Phase: "M",
			Args:  map[string]any{"dropped": d},
		})
	}
	for _, ev := range events {
		tid, ok := tids[ev.Component]
		if !ok {
			tid = len(tids)
			tids[ev.Component] = tid
			out = append(out, chromeEvent{
				Name:  "thread_name",
				Phase: "M",
				PID:   0,
				TID:   tid,
				Args:  map[string]any{"name": ev.Component},
			})
		}
		ce := chromeEvent{
			Name:  ev.Name,
			Cat:   ev.Component,
			Phase: "i",
			TS:    ev.Cycle,
			PID:   0,
			TID:   tid,
			Scope: "t",
			Args:  ev.ChromeArgs(),
		}
		if ev.Dur > 0 { // duration events render as complete (X) slices
			ce.Phase, ce.Scope, ce.Dur = "X", "", ev.Dur
		}
		out = append(out, ce)
	}
	if out == nil {
		out = []chromeEvent{}
	}
	return json.MarshalIndent(out, "", " ")
}

// WriteChrome writes the Chrome trace_event JSON to path.
func (t *Tracer) WriteChrome(path string) error {
	data, err := t.ChromeJSON()
	if err != nil {
		return fmt.Errorf("metrics: trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
