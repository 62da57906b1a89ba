// Sweep/trial span instrumentation: while a -trace file is open
// (metrics.Trace()), every Map call streams a hierarchy of duration events
// to it — per computed trial a queue span (dispatch → worker pickup), a
// run span (the shard function) and a reduce span (memo store and
// progress accounting), plus one sweep span covering the whole fan-out.
// Without -trace the tracer is nil and emission does nothing. Every sweep
// publishes wall-clock latency summaries (exact p50/p95/p99, worker
// occupancy) into the operational telemetry registry at sweep end.
//
// Span identity is deterministic: SpanID is a pure function of
// (RootSeed, index), the same derivation the shard seeds use, so the same
// trial carries the same ID across runs, worker counts and kernels. The
// spans' timestamps are wall-clock microseconds since sweep start and are
// therefore operational data only: they flow to the -trace artifact and
// telemetry.Runtime, never into a deterministic metrics snapshot.

package runner

import (
	"sort"
	"time"

	"l15cache/internal/metrics"
	"l15cache/internal/telemetry"
)

// SpanID derives the deterministic span identifier of shard index under
// root: the fixed-width hex rendering of the shard's Seed. Trial spans in
// the trace, flight annotations and operator tooling can therefore be
// joined on it across runs.
func SpanID(root int64, index int) string {
	return metrics.FormatSpanID(uint64(Seed(root, index)))
}

// trialRunBounds are the bucket upper bounds (seconds) of the operational
// trial-latency histogram.
var trialRunBounds = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30,
}

// sweepSpans accumulates one Map call's span emission and latency
// summary. It lives on the reducing goroutine only, so plain fields
// suffice.
type sweepSpans struct {
	name    string
	comp    string // trace component, "runner/"+name
	root    int64
	epoch   time.Time
	tracer  *metrics.Tracer
	runHist *metrics.Histogram
	runDurs []time.Duration
	sumRun  time.Duration
}

// newSweepSpans starts the span hierarchy of one sweep; epoch anchors all
// span timestamps (µs offsets).
func newSweepSpans(name string, root int64, epoch time.Time) *sweepSpans {
	return &sweepSpans{
		name: name, comp: "runner/" + name, root: root, epoch: epoch,
		tracer:  metrics.Trace(),
		runHist: telemetry.Runtime.Histogram("runner.trial_run_seconds", trialRunBounds),
	}
}

// us converts an absolute time to the sweep's µs timeline.
func (s *sweepSpans) us(t time.Time) uint64 {
	d := t.Sub(s.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// trial emits the queue/run/reduce spans of one computed trial and
// records its run latency. enq is the dispatch time, start/end bound the
// shard function, redStart bounds the reducer's bookkeeping (its end is
// now).
func (s *sweepSpans) trial(index int, enq, start, end, redStart time.Time) {
	if s.tracer != nil {
		span := uint64(Seed(s.root, index))
		s.tracer.EmitTrialSpan(s.us(enq), s.us(start)-s.us(enq), s.comp, "trial.queue", span, index)
		s.tracer.EmitTrialSpan(s.us(start), s.us(end)-s.us(start), s.comp, "trial.run", span, index)
		s.tracer.EmitTrialSpan(s.us(redStart), s.us(time.Now())-s.us(redStart), s.comp, "trial.reduce", span, index)
	}

	run := end.Sub(start)
	s.runDurs = append(s.runDurs, run)
	s.sumRun += run
	s.runHist.Observe(run.Seconds())
}

// finish emits the sweep span and publishes the latency summary — exact
// p50/p95/p99 over the computed trials' run durations and the worker
// occupancy (Σ run time over workers × wall time) — into
// telemetry.Runtime. Trials restored from the memo never ran, so they
// are excluded from the distribution by construction.
func (s *sweepSpans) finish(workers, total, restored int) {
	now := time.Now()
	if s.tracer != nil {
		s.tracer.EmitSpan(0, s.us(now), s.comp, "sweep", map[string]any{
			"trials":   total,
			"computed": len(s.runDurs),
			"restored": restored,
			"workers":  workers,
		})
	}

	if len(s.runDurs) == 0 {
		return
	}
	sort.Slice(s.runDurs, func(i, j int) bool { return s.runDurs[i] < s.runDurs[j] })
	prefix := "runner." + s.name + "."
	telemetry.Runtime.Gauge(prefix + "trial_run_p50_seconds").Set(exactPercentile(s.runDurs, 0.50))
	telemetry.Runtime.Gauge(prefix + "trial_run_p95_seconds").Set(exactPercentile(s.runDurs, 0.95))
	telemetry.Runtime.Gauge(prefix + "trial_run_p99_seconds").Set(exactPercentile(s.runDurs, 0.99))
	if wall := now.Sub(s.epoch); wall > 0 && workers > 0 {
		occ := s.sumRun.Seconds() / (float64(workers) * wall.Seconds())
		telemetry.Runtime.Gauge(prefix + "worker_occupancy").Set(occ)
	}
}

// exactPercentile returns the q-th percentile of sorted durations in
// seconds, nearest-rank convention (ceil(q·n), 1-based).
func exactPercentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1].Seconds()
}
