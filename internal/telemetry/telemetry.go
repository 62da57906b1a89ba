// Package telemetry is the host-time observability layer on top of
// internal/metrics: the operational Runtime registry, a runtime/metrics
// collector for the Go runtime's own health, the wall-clock sampler that
// writes the merged registries' series into the -trace file as counter
// events, and OpenFiles, which opens every cmd tool's -metrics and -trace
// artifacts (DESIGN.md §13).
//
// The layer's one invariant is that it must never perturb determinism:
//
//   - the deterministic registry (metrics.Default) stays the only source of
//     the archived -metrics artifacts, and telemetry only *reads* it
//     (Snapshot is a pure read; collectors store derived values);
//   - every wall-clock-coupled series — trial latency, worker occupancy,
//     heap, GC pauses — lives in the separate Runtime registry below,
//     which the sampler merges into its series but which is never written
//     into the -metrics artifact;
//   - the sampler's clock reads are an operator-facing carve-out, and the
//     walltime/puritycheck analyzers encode the boundary.
//
// A sweep therefore produces byte-identical experiment artifacts with
// -trace on or off — the property internal/cli's
// TestTraceDoesNotChangeMetrics checks end to end.
package telemetry

import (
	"l15cache/internal/metrics"
)

// Runtime is the operational registry: the home of every series that is a
// function of the host rather than the simulation — Go runtime health
// (RegisterRuntimeCollector), the runner's trial-latency and occupancy
// summaries. The sampler merges it into the series it writes to -trace;
// it is deliberately excluded from the -metrics artifact (OpenFiles) so
// archived artifacts stay deterministic.
var Runtime = metrics.NewRegistry()

func init() { RegisterRuntimeCollector(Runtime) }

// Merge overlays b on a: the union of both snapshots, with b winning name
// collisions. The intended operands — the deterministic registry and the
// operational Runtime registry — use disjoint name prefixes, so in
// practice nothing collides. The Build header comes from a (they are
// identical per binary anyway).
func Merge(a, b metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Build:      a.Build,
		Counters:   make(map[string]uint64, len(a.Counters)+len(b.Counters)),
		Gauges:     make(map[string]float64, len(a.Gauges)+len(b.Gauges)),
		Histograms: make(map[string]metrics.HistogramSnapshot, len(a.Histograms)+len(b.Histograms)),
	}
	for _, s := range []metrics.Snapshot{a, b} {
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// MergedSnapshot captures metrics.Default overlaid with Runtime — the
// view the sampler records.
func MergedSnapshot() metrics.Snapshot {
	return Merge(metrics.Default.Snapshot(), Runtime.Snapshot())
}
