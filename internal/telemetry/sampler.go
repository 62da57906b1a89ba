// The time-series sampler: a wall-clock loop that captures the merged
// registries and writes each capture into the open -trace file as Chrome
// counter events, on the same timeline as the runner's sweep and trial
// spans. Nothing is retained in memory, so a sweep of any length records
// its whole series in constant space. The wall-clock reads are an
// operator-facing carve-out: a sample timestamps *observations of* the
// simulation, never anything the simulation reads back, so sampling
// cannot perturb results (DESIGN.md §13).

package telemetry

import (
	"errors"
	"sync"
	"time"

	"l15cache/internal/metrics"
)

// DefaultInterval is the sampling period used when NewSampler gets a
// non-positive interval.
const DefaultInterval = 250 * time.Millisecond

// component is the trace row the sampler's counter events belong to.
const component = "telemetry"

// Sampler periodically captures a snapshot function and writes each
// capture into a tracer as counter events. Construct with NewSampler;
// Start/Stop bound the sampling goroutine. All methods are safe for
// concurrent use.
type Sampler struct {
	snap     func() metrics.Snapshot
	interval time.Duration
	tr       *metrics.Tracer

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewSampler returns a sampler over snap (nil means MergedSnapshot) with
// the given period (non-positive means DefaultInterval), writing its
// series into tr. The sampler is idle until Start.
func NewSampler(snap func() metrics.Snapshot, interval time.Duration, tr *metrics.Tracer) *Sampler {
	if snap == nil {
		snap = MergedSnapshot
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{snap: snap, interval: interval, tr: tr}
}

// Start takes a first sample and launches the sampling loop, which takes
// one more each tick; a second Start while running is a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.SampleNow()

	go func() {
		defer close(done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.SampleNow()
			}
		}
	}()
}

// Stop halts the sampling loop (if running) and waits for it to exit,
// then takes one final sample, so the series reaches the end of the run.
// The sampler may be started again afterwards.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.SampleNow()
}

// SampleNow captures one sample and writes it into the tracer: one
// counter event per series, all at one timestamp. Counters carry their
// cumulative value, so consecutive samples' differences are the
// increments. Histograms are folded into scalar series: `<name>.count`,
// `<name>.sum`, `<name>.p50` and `<name>.p95`.
func (s *Sampler) SampleNow() {
	snap := s.snap()
	ts := s.tr.Stamp(time.Now())
	emit := func(name string, v float64) { s.tr.EmitCounter(ts, component, name, v) }
	for name, v := range snap.Counters {
		emit(name, float64(v))
	}
	for name, v := range snap.Gauges {
		emit(name, v)
	}
	for name, h := range snap.Histograms {
		emit(name+".count", float64(h.Count))
		emit(name+".sum", h.Sum)
		if h.Count > 0 {
			emit(name+".p50", h.Quantile(0.50))
			emit(name+".p95", h.Quantile(0.95))
		}
	}
}

// OpenFiles starts the artifacts behind every cmd/ tool's -metrics and
// -trace flags. It opens the trace file now, as the process-wide
// metrics.Trace, with a sampler writing the merged registries' series
// into it. It returns the flush that stops the sampler (taking the final
// sample), writes the metrics.Default snapshot and closes the trace. An
// empty path skips that artifact. The flush writes both independently of
// each other's success and may be called more than once.
func OpenFiles(metricsPath, tracePath string) (flush func() error, err error) {
	var tr *metrics.Tracer
	stopSampler := func() {}
	if tracePath != "" {
		if tr, err = metrics.OpenTrace(tracePath); err != nil {
			return nil, err
		}
		s := NewSampler(nil, 0, tr)
		s.Start()
		stopSampler = s.Stop
	}
	return func() error {
		stopSampler()
		var err error
		if metricsPath != "" {
			err = metrics.Default.WriteFile(metricsPath)
		}
		return errors.Join(err, tr.Close())
	}, nil
}
