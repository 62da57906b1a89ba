package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// FormatSpanID renders a trial span's identity as 16 hex digits, the form
// trace args and operator tooling join on.
func FormatSpanID(span uint64) string { return fmt.Sprintf("%016x", span) }

// Tracer streams host-time events as a Chrome trace_event JSON array
// ("JSON array format", viewable in chrome://tracing or
// https://ui.perfetto.dev): each event is written as one array element
// the moment it is emitted, so a trace keeps every event of a run however
// long it is, and holds none in memory. Each distinct component becomes
// one "thread" row, named by a metadata record written before its first
// event. Every timestamp is a host clock reading placed through Stamp, so
// a trace has one clock origin; simulated time has its own stream, the
// flight recording (internal/flight). A nil *Tracer is a valid no-op
// sink, so components can hold one unconditionally.
type Tracer struct {
	mu sync.Mutex
	s  stream
}

// stream is a Tracer's writer state, guarded by the Tracer's mu.
type stream struct {
	w      *bufio.Writer // its errors are sticky: Close reports them
	c      io.Closer     // the file OpenTrace created, or nil
	tids   map[string]int
	n      int   // array elements written
	err    error // first encoding or write error
	closed bool
	origin time.Time // the first host clock reading stamped, the timeline's 0
}

// trace is the process-wide tracer, installed by OpenTrace until Close.
var trace atomic.Pointer[Tracer]

// Trace returns the process-wide tracer the cmd/ tools' -trace flag
// opens, or nil — a no-op sink — when no -trace file is open.
func Trace() *Tracer { return trace.Load() }

// NewTracer returns a tracer that streams its array to w; Close ends the
// array.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{s: stream{w: bufio.NewWriter(w), tids: map[string]int{}}}
	t.s.w.WriteByte('[')
	return t
}

// OpenTrace creates path, starts a trace in it and installs the tracer as
// the process-wide Trace until its Close.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: trace: %w", err)
	}
	t := NewTracer(f)
	t.s.c = f
	trace.Store(t)
	return t, nil
}

// Close ends the array, flushes it, closes the file OpenTrace created and
// uninstalls the tracer; events emitted afterwards are discarded. It
// returns the first error the trace met and is safe to call more than
// once and on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	trace.CompareAndSwap(t, nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s.close()
}

func (s *stream) close() error {
	if !s.closed {
		s.closed = true
		s.w.WriteString("\n]\n")
		s.keep(s.w.Flush())
		if s.c != nil {
			s.keep(s.c.Close())
		}
	}
	if s.err != nil {
		return fmt.Errorf("metrics: trace: %w", s.err)
	}
	return nil
}

func (s *stream) keep(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Stamp places a host clock reading on the trace's timeline: µs since the
// trace's origin, which is the first reading ever stamped on t. Readings
// before the origin stamp 0, as does a nil tracer. The reading is the
// caller's, so a tracer never reads the clock itself.
func (t *Tracer) Stamp(at time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s.origin.IsZero() {
		t.s.origin = at
	}
	if d := at.Sub(t.s.origin); d > 0 {
		return uint64(d.Microseconds())
	}
	return 0
}

// chromeEvent is one record of the Chrome trace_event format.
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    uint64 `json:"ts"` // µs on the trace's timeline (Stamp)
	Dur   uint64 `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	Args  any    `json:"args,omitempty"`
}

// trialArgs are a trial span's args: the span ID and the trial index.
type trialArgs struct {
	Span  string `json:"span"`
	Trial int    `json:"trial"`
}

// EmitSpan records one duration event covering [ts, ts+dur] µs of host
// time — a Chrome "complete" (X) slice, such as a runner sweep. Safe for
// concurrent use and on a nil tracer.
func (t *Tracer) EmitSpan(ts, dur uint64, component, name string, args map[string]any) {
	if t == nil {
		return
	}
	ev := spanEvent(ts, dur, name)
	if len(args) > 0 {
		ev.Args = args
	}
	t.write(component, ev)
}

// EmitTrialSpan is EmitSpan for a runner trial: span (the trial's seed)
// and trial (its index) become the event's args.
func (t *Tracer) EmitTrialSpan(ts, dur uint64, component, name string, span uint64, trial int) {
	if t == nil {
		return
	}
	ev := spanEvent(ts, dur, name)
	ev.Args = trialArgs{FormatSpanID(span), trial}
	t.write(component, ev)
}

// counterArgs are a counter sample's args: the series' one value.
type counterArgs struct {
	Value float64 `json:"value"`
}

// EmitCounter records one sample of the counter series name at ts — a
// Chrome "C" event, which the viewers draw as a value track. Safe for
// concurrent use and on a nil tracer.
func (t *Tracer) EmitCounter(ts uint64, component, name string, value float64) {
	if t == nil {
		return
	}
	t.write(component, chromeEvent{Name: name, Phase: "C", TS: ts, Args: counterArgs{value}})
}

func spanEvent(ts, dur uint64, name string) chromeEvent {
	return chromeEvent{Name: name, Phase: "X", TS: ts, Dur: max(dur, 1)} // a zero-width X slice is invisible in the viewers
}

func (t *Tracer) write(component string, ev chromeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s.write(component, ev)
}

// write stamps ev with its component's row, writing the row's metadata
// first when the component is new, and appends it to the array.
func (s *stream) write(component string, ev chromeEvent) {
	if s.closed {
		return
	}
	tid, ok := s.tids[component]
	if !ok {
		tid = len(s.tids)
		s.tids[component] = tid
		s.element(chromeEvent{Name: "thread_name", Phase: "M", TID: tid,
			Args: map[string]any{"name": component}})
	}
	ev.Cat, ev.TID = component, tid
	s.element(ev)
}

func (s *stream) element(ev chromeEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		s.keep(err)
		return
	}
	if s.n > 0 {
		s.w.WriteByte(',')
	}
	s.w.WriteByte('\n')
	s.w.Write(data)
	s.n++
}
