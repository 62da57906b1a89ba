package monitor

import (
	"fmt"
	"strings"

	"l15cache/internal/flight"
	"l15cache/internal/metrics"
	"l15cache/internal/soc"
)

// Demo runs the §4.3 producer/consumer demo plus an L1-overflowing sweep
// (soc.DemoProducer, DemoConsumer and DemoSweeper on cores 0–2) on a fresh
// SoC built from cfg, records its L1.5 events and analyses the recording
// (Analyze). The SoC feeds reg, the report's numbers are published to
// reg, the recording is appended to rec (nil keeps none), and the
// returned text is the report followed by the cluster-0 L1.5 and the L2
// hit/miss totals. This is the cycle-accurate smoke run of cmd/repro: it
// puts real L1/L1.5/L2 counters and an SDU reassignment-latency histogram
// into the -metrics snapshot.
func Demo(cfg soc.Config, reg *metrics.Registry, rec *flight.Recorder) (string, error) {
	s, err := soc.New(cfg)
	if err != nil {
		return "", err
	}
	own := flight.NewCap(1 << 12) // the demo moves a handful of ways
	s.Instrument(reg, own)

	pt := s.IdentityPageTable(1)
	base := uint32(0x1000)
	for core, src := range []string{soc.DemoProducer, soc.DemoConsumer, soc.DemoSweeper} {
		n, err := s.LoadProgram(base, src)
		if err != nil {
			return "", err
		}
		if err := s.SetPageTable(core, pt); err != nil {
			return "", err
		}
		s.StartCore(core, base, 0x8000+uint32(core)*0x1000)
		base += uint32(4*n) + 0x100
	}
	for core := 3; core < len(s.Cores); core++ {
		s.Cores[core].Halted = true
	}
	if _, err := s.Run(1_000_000, nil); err != nil {
		return "", err
	}
	s.SettleSDU(64)

	recording := own.Snapshot()
	if recording.Dropped > 0 {
		return "", fmt.Errorf("monitor: demo recording overflowed (%d events dropped)", recording.Dropped)
	}
	for _, e := range recording.Events {
		rec.Emit(e)
	}
	ways := 0
	var end uint64
	for _, cl := range s.Clusters {
		ways += cl.L15.Config().Ways
		end = max(end, cl.L15.Ticks())
	}
	report := Analyze(recording, ways, end)
	report.Publish(reg)

	var sb strings.Builder
	sb.WriteString(report.String())
	cl := s.Clusters[0].L15
	var hits, misses, global uint64
	for _, st := range cl.Stats {
		hits += st.Hits
		misses += st.Misses
		global += st.GlobalHits
	}
	fmt.Fprintf(&sb, "cluster 0 L1.5: hits %d (global %d), misses %d\n", hits, global, misses)
	fmt.Fprintf(&sb, "L2: hits %d, misses %d\n", s.L2.Stats.Hits, s.L2.Stats.Misses)
	return sb.String(), nil
}
