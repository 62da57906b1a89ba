// Package monitor implements the cycle-accurate monitor of §5.3: from a
// flight recording of a simulated SoC's L1.5 Caches it derives (i) the
// utilisation of the L1.5 ways and (ii) the configuration latencies of the
// Supply-Demand Units. The paper used the same instrument to produce
// Fig. 8(c).
//
// Way occupancy is piecewise constant between the SDU's way moves, and
// the L1.5 records every move as a KindSDU event, so both numbers are
// exact functions of the recording rather than samples of the run.
package monitor

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"l15cache/internal/flight"
	"l15cache/internal/forensics"
	"l15cache/internal/metrics"
)

// Report is the §5.3 summary of one hardware recording.
type Report struct {
	// End is the SDU tick the utilisation window [0, End] closes at.
	End uint64
	// Utilization is the time-weighted mean fraction of assigned ways
	// over [0, End].
	Utilization float64
	// Latencies holds one configuration latency (SDU cycles) per
	// satisfied demand, cluster by cluster.
	Latencies []uint64
}

// Analyze derives the report from a recording of L1.5 hardware events
// (soc.SoC.Instrument): totalWays is the way count summed over every
// cluster, and end the final SDU tick of the run.
//
// The utilisation is the exact integral of each cluster's way-occupancy
// timeline (forensics.WayTimeline; no ways are assigned before a
// cluster's first event) over [0, end], divided by totalWays·end.
//
// The latencies group each cluster's KindSDU events, in recording order,
// into runs of consecutive moves by the same core; a run stands for one
// reconfiguration, and its latency is its last tick minus its first plus
// one (the SDU moves at most one way per cycle).
func Analyze(rec flight.Recording, totalWays int, end uint64) Report {
	m := forensics.Build(rec)
	r := Report{End: end}
	var area float64
	for _, cl := range m.Clusters() {
		var at float64
		assigned := 0
		for _, pt := range m.WayTimeline(cl) {
			area += float64(assigned) * (pt.Time - at)
			at, assigned = pt.Time, max(pt.Assigned, 0)
		}
		area += float64(assigned) * (float64(end) - at)

		core, first, last := int32(-1), 0.0, 0.0
		for _, e := range rec.Events {
			if e.Kind != flight.KindSDU || e.Task >= 0 || e.Node < 0 || int(e.Cluster) != cl {
				continue
			}
			if e.Core != core {
				if core >= 0 {
					r.Latencies = append(r.Latencies, uint64(last-first)+1)
				}
				core, first = e.Core, e.Time
			}
			last = e.Time
		}
		if core >= 0 {
			r.Latencies = append(r.Latencies, uint64(last-first)+1)
		}
	}
	if totalWays > 0 && end > 0 {
		r.Utilization = area / (float64(totalWays) * float64(end))
	}
	return r
}

// meanLatency is the mean of the latencies (0 when there are none).
func (r Report) meanLatency() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum uint64
	for _, l := range r.Latencies {
		sum += l
	}
	return float64(sum) / float64(len(r.Latencies))
}

// Publish stores the report in the registry as monitor.way_utilization,
// monitor.reconfigurations and monitor.mean_config_latency_cycles. A nil
// registry publishes nothing.
func (r Report) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("monitor.way_utilization").Set(r.Utilization)
	reg.Counter("monitor.reconfigurations").Store(uint64(len(r.Latencies)))
	reg.Gauge("monitor.mean_config_latency_cycles").Set(r.meanLatency())
}

// WriteReport writes a short human-readable summary to w and propagates
// the first write error, so callers streaming to a file or pipe see
// truncation instead of a silently short report.
func (r Report) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "monitor: mean L1.5 way utilisation %.1f%% over %d SDU cycles\n",
		100*r.Utilization, r.End); err != nil {
		return err
	}
	if len(r.Latencies) == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "monitor: %d reconfigurations, mean latency %.1f cycles, max %d\n",
		len(r.Latencies), r.meanLatency(), slices.Max(r.Latencies))
	return err
}

// String renders the summary. It is WriteReport into a strings.Builder,
// whose writes cannot fail.
func (r Report) String() string {
	var sb strings.Builder
	_ = r.WriteReport(&sb)
	return sb.String()
}
