// Package flight is the simulator's flight recorder: a typed,
// cycle-stamped, append-only log of every scheduling and
// cache-reconfiguration *decision*, built for post-hoc forensics. It is
// the one event stream in simulated time — the schedulers, the SoC's
// L1.5s and the §5.3 monitor all write or read it — as the Chrome trace
// of internal/metrics is the one stream in host time. The recording
// answers "why did the schedule come out this way" for the
// internal/forensics analyzers and cmd/explain, which also draws it as a
// Chrome trace.
//
// The design contract, in order of importance:
//
//   - Determinism. A recording is a pure function of the simulated run:
//     events carry simulated time only (cycles or task-time units, never
//     the wall clock), the JSONL encoder emits fields in a fixed order
//     with deterministic float formatting, and per-run recorders compose
//     with the internal/runner harness so exported bytes are identical
//     at any -workers count.
//   - One recorder per run. A Recorder belongs to the one goroutine
//     simulating its run and takes no lock; a sweep gives each trial its
//     own recorder and merges the recordings (Merge).
//   - Cheap hot path. Event is a fixed-size struct of scalars (no maps,
//     no strings); Emit appends it to the run's own log, growing the
//     buffer amortised, and Reset empties the log but keeps the buffer
//     for the next run.
//
// A nil *Recorder is a valid no-op sink, so the simulators thread one
// through unconditionally and pay a single pointer test when recording is
// off.
package flight

// Kind discriminates the event types of the recording schema (DESIGN.md
// §10). The scalar payload fields A, B, C of Event are interpreted per
// kind, as documented on each constant.
type Kind uint8

// The event kinds. Planning-time events (emitted while Algorithm 1 runs)
// carry Wave and use Time for the wave index; runtime events carry the
// simulated clock in Time.
const (
	// KindSchedStart opens one scheduling run: A=ζ (ways), B=κ (way
	// bytes), C=1 when the run allocates ways (Alg. 1) or 0 for the
	// priority-only baselines.
	KindSchedStart Kind = iota

	// KindWave is one wave transition of Alg. 1: Wave is the wave index,
	// A=wave size (nodes examined), B=Σ Ω (ways in use entering the
	// wave).
	KindWave

	// KindLambda is one λ_j recomputation after a wave: Wave is the wave
	// just examined, A=max λ over the task (the surviving longest path).
	KindLambda

	// KindPlanWays is one F(v_j, Ω, ζ) grant during planning: Node is
	// v_j, Wave the wave index, A=ways granted, B=Σ Ω after the grant,
	// C=ζ.
	KindPlanWays

	// KindGVConvert is one local→global visibility conversion: a way
	// group turning readable by the successors. Planning-time: Node is
	// the new owner, Wave the wave index, A=group size. Hardware (L1.5):
	// Core is the issuing core, Cluster the cache, A=global ways after.
	KindGVConvert

	// KindRelease is one job release: Job is the release index, Time the
	// release instant, A=absolute deadline (0 when the workload has
	// none).
	KindRelease

	// KindDispatch is one node placement: Time=start, A=fetch phase
	// duration, B=execute phase duration, C=L1.5 ways held during the
	// span (0 for baselines).
	KindDispatch

	// KindGrant is one runtime Walloc decision at dispatch: A=ways the
	// plan demanded, B=ways actually granted, C=ways assigned in the
	// cluster after the grant. B < A is a supply shortfall the forensics
	// attribute fetch inflation to.
	KindGrant

	// KindEdge is one ETM application at dispatch: Node is the consumer,
	// A=producer node ID, B=raw edge cost μ, C=effective cost after the
	// ETM reduction (C=B when no ways were visible).
	KindEdge

	// KindFinish is one node completion: Time=finish, A=span duration
	// (fetch+execute).
	KindFinish

	// KindSDU is one Supply-Demand-Unit occupation: the FSM configuring
	// A ways one at a time. Event-driven simulators emit Time=request,
	// B=busy-until, C=latency (B−Time). The cycle-accurate L1.5 emits
	// one event per way moved: Node=way index, A=1 (assign) or 0
	// (revoke), B=owner core after.
	KindSDU

	// KindWayFree is one reclamation: a node's ways turning reclaimable
	// after the last consumer finished. A=ways freed, B=ways assigned in
	// the cluster after.
	KindWayFree

	// KindDeadline is one deadline check at job completion (or horizon
	// cutoff): Time=completion, A=absolute deadline, B=1 when missed, 0
	// when met, C=response time normalised by the relative deadline.
	KindDeadline
)

// kindNames is indexed by Kind; the encoders and String share it.
var kindNames = [...]string{
	KindSchedStart: "sched_start",
	KindWave:       "wave",
	KindLambda:     "lambda",
	KindPlanWays:   "plan_ways",
	KindGVConvert:  "gv_convert",
	KindRelease:    "release",
	KindDispatch:   "dispatch",
	KindGrant:      "grant",
	KindEdge:       "edge",
	KindFinish:     "finish",
	KindSDU:        "sdu",
	KindWayFree:    "way_free",
	KindDeadline:   "deadline",
}

// String returns the schema name of the kind ("kind(N)" when out of
// range, so corrupt recordings still render).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + itoa(int(k)) + ")"
}

// KindCount is the number of defined kinds (for validation and tests).
const KindCount = int(KindDeadline) + 1

// Event is one recorded decision. All fields are scalars so an Event
// never escapes to the heap on the emit path. Integer fields use -1 for
// "not applicable" (e.g. Core of a planning-time event).
type Event struct {
	Seq     uint64  // assigned by the recorder, dense from 0
	Kind    Kind    //
	Time    float64 // simulated time: cycles or task-time units
	Task    int32   // task index in the simulated set (-1 n/a)
	Job     int32   // release index of the task (-1 n/a)
	Node    int32   // DAG node / way index (-1 n/a)
	Core    int32   // core (-1 n/a)
	Cluster int32   // cluster (-1 n/a)
	Wave    int32   // Alg. 1 wave index (-1 for runtime events)
	A, B, C float64 // kind-specific payload (see Kind docs)
}

// Recorder is one run's append-only event log. A nil *Recorder is a
// valid no-op sink. A Recorder is not safe for concurrent use: give each
// simulated run its own (see Merge).
type Recorder struct {
	buf []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Emit records one event, assigning its sequence number. Emit is only the
// nil test, small enough to inline, so a simulator running without a
// recorder pays no call per event.
func (r *Recorder) Emit(e Event) {
	if r != nil {
		r.emit(e)
	}
}

// emit is Emit's body, kept out of line so Emit inlines.
func (r *Recorder) emit(e Event) {
	e.Seq = uint64(len(r.buf))
	r.buf = append(r.buf, e)
}

// Reset empties the recorder and keeps its buffer, so a recorder reused
// run after run stops allocating once it has grown to the largest run.
func (r *Recorder) Reset() {
	if r != nil {
		r.buf = r.buf[:0]
	}
}

// Events returns a copy of the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.buf...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Recording is the export form of a recorder: its events, oldest first.
// The forensics analyzers consume this.
type Recording struct {
	Events []Event
}

// Snapshot captures the recorder as a Recording.
func (r *Recorder) Snapshot() Recording {
	return Recording{Events: r.Events()}
}

// Merge concatenates per-run recordings in argument order, renumbering
// sequence numbers densely. This is how a sweep composes with the
// determinism contract: each trial records into its own recorder, the
// runner reduces in index order, and the merged export is byte-identical
// at any worker count.
func Merge(recs ...Recording) Recording {
	var out Recording
	for _, rec := range recs {
		for _, e := range rec.Events {
			e.Seq = uint64(len(out.Events))
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// itoa is a minimal positive-int formatter so String avoids fmt (and its
// allocation) on the error path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
