// The time-series sampler: a wall-clock loop capturing periodic snapshot
// deltas of the merged registries and appending each one as a JSONL line
// to a writer (the `-telemetry` file). Nothing is retained in memory, so
// a sweep of any length writes its whole series in constant space. The
// wall-clock reads are an operator-facing carve-out: a sample timestamps
// *observations of* the simulation, never anything the simulation reads
// back, so sampling cannot perturb results (DESIGN.md §13).

package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"l15cache/internal/metrics"
)

// DefaultInterval is the sampling period used when NewSampler gets a
// non-positive interval.
const DefaultInterval = 250 * time.Millisecond

// Sample is one captured point of the sampled time series, written as one
// JSONL line. Counter values are cumulative; Deltas carries the increment
// since the previous sample. Histograms are folded into scalar series:
// `<name>.count` (counter), `<name>.sum`, `<name>.p50` and `<name>.p95`
// (gauges).
type Sample struct {
	// Seq is the dense sample index since the sampler was created.
	Seq uint64 `json:"seq"`
	// UnixMillis is the wall-clock capture time.
	UnixMillis int64 `json:"unix_ms"`
	// ElapsedMillis is the time since the sampler started.
	ElapsedMillis int64 `json:"elapsed_ms"`
	// Counters holds the cumulative counter values.
	Counters map[string]uint64 `json:"counters"`
	// Deltas holds each counter's increment since the previous sample.
	// A counter that did not move is omitted; on the first sample the
	// whole cumulative value counts as the delta.
	Deltas map[string]uint64 `json:"deltas"`
	// Gauges holds the gauge values (plus folded histogram scalars).
	Gauges map[string]float64 `json:"gauges"`
}

// Sampler periodically captures a snapshot function and appends each
// sample to a writer as one JSONL line. Construct with NewSampler;
// Start/Stop bound the sampling goroutine. All methods are safe for
// concurrent use.
type Sampler struct {
	snap     func() metrics.Snapshot
	interval time.Duration

	mu    sync.Mutex
	w     *bufio.Writer
	err   error // first write or encode error; later samples are dropped
	seq   uint64
	prev  map[string]uint64
	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

// NewSampler returns a sampler over snap (nil means MergedSnapshot) with
// the given period (non-positive means DefaultInterval), writing its
// series to w through a buffer that Stop flushes. The sampler is idle
// until Start.
func NewSampler(snap func() metrics.Snapshot, interval time.Duration, w io.Writer) *Sampler {
	if snap == nil {
		snap = MergedSnapshot
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{
		snap:     snap,
		interval: interval,
		w:        bufio.NewWriter(w),
		start:    time.Now(),
	}
}

// Start launches the sampling loop; a second Start while running is a
// no-op. Each tick appends one sample.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done

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
// then captures one final sample — so a short run never writes an empty
// series — flushes the buffer, and returns the first write error. The
// sampler may be started again afterwards.
func (s *Sampler) Stop() error {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.SampleNow()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("telemetry: %w", err)
	}
	return s.err
}

// SampleNow synchronously captures one sample, appends it to the writer
// and returns it. The snapshot runs outside the sampler lock, so a slow
// collector never blocks Stop.
func (s *Sampler) SampleNow() Sample {
	snap := s.snap()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	sample := Sample{
		Seq:           s.seq,
		UnixMillis:    now.UnixMilli(),
		ElapsedMillis: now.Sub(s.start).Milliseconds(),
		Counters:      make(map[string]uint64, len(snap.Counters)+len(snap.Histograms)),
		Deltas:        make(map[string]uint64),
		Gauges:        make(map[string]float64, len(snap.Gauges)+3*len(snap.Histograms)),
	}
	s.seq++
	for name, v := range snap.Counters {
		sample.Counters[name] = v
	}
	for name, v := range snap.Gauges {
		sample.Gauges[name] = v
	}
	for name, h := range snap.Histograms {
		sample.Counters[name+".count"] = h.Count
		sample.Gauges[name+".sum"] = h.Sum
		if h.Count > 0 {
			sample.Gauges[name+".p50"] = h.Quantile(0.50)
			sample.Gauges[name+".p95"] = h.Quantile(0.95)
		}
	}
	for name, v := range sample.Counters {
		if d := v - s.prev[name]; d != 0 {
			sample.Deltas[name] = d
		}
	}
	s.prev = sample.Counters

	if s.err == nil {
		// encoding/json sorts map keys, so a sample's line is a pure
		// function of its values.
		line, err := json.Marshal(sample)
		if err != nil {
			s.err = fmt.Errorf("telemetry: sample %d: %w", sample.Seq, err)
		} else if _, err := s.w.Write(append(line, '\n')); err != nil {
			s.err = fmt.Errorf("telemetry: %w", err)
		}
	}
	return sample
}

// StartFlag implements the cmd tools' -telemetry flag: for a non-empty
// path it creates the file, starts a sampler over the merged default
// registries streaming into it, and returns the sampler with a flush that
// stops it (one final sample), closes the file and reports the first
// error; for "" it returns a nil sampler and a no-op flush. The flush is
// idempotent — the interrupt and normal exit paths may both call it.
func StartFlag(path string) (*Sampler, func() error) {
	if path == "" {
		return nil, func() error { return nil }
	}
	f, err := os.Create(path)
	if err != nil {
		err = fmt.Errorf("telemetry: %w", err)
		return nil, func() error { return err }
	}
	s := NewSampler(nil, 0, f)
	s.Start()
	var once sync.Once
	return s, func() error {
		once.Do(func() {
			err = s.Stop()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("telemetry: %w", cerr)
			}
		})
		return err
	}
}
