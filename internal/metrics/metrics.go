// Package metrics is the repository's unified observability layer: a
// zero-dependency, allocation-light registry of named counters, gauges and
// fixed-bucket latency histograms, plus a ring-buffered event tracer
// (tracer.go) that exports Chrome trace_event JSON.
//
// Hot simulation loops have two ways to feed the registry:
//
//   - directly, through atomic Counter/Gauge/Histogram handles obtained
//     once and cached (safe under concurrent harnesses such as the
//     experiments fan-out);
//   - lazily, through RegisterCollector: single-threaded components (the
//     tag-store caches, the TLBs) keep their cheap non-atomic Stats blocks
//     and copy them into the registry only when Snapshot is taken, so the
//     simulated hot path pays nothing.
//
// The parallel experiment harness (internal/runner) publishes its
// operator-facing progress through the same registry: per-sweep
// `runner.<name>.trials_total`, `.trials_completed`, `.progress` and
// `.eta_seconds` series, so a long sweep's state shows up in the standard
// `-metrics` snapshot alongside the simulation counters.
//
// Snapshot serialises to stable JSON (keys sorted), which is what the CI
// pipeline archives and gates on.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"l15cache/internal/buildinfo"
)

// Counter is a monotonic (or externally mirrored) event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value — the collector path, mirroring a component's
// internal Stats block at snapshot time.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Add adds d to the gauge (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v <= Bounds[i] (and > Bounds[i-1]); the final implicit bucket counts
// v > Bounds[len-1]. All updates are atomic, so concurrent harnesses may
// observe into the same histogram.
type Histogram struct {
	bounds           []float64
	counts           []atomic.Uint64 // len(bounds)+1
	count            atomic.Uint64
	sumBits, maxBits atomic.Uint64
}

// NewHistogram builds a standalone histogram with the given strictly
// increasing upper bounds. Most callers want Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v and leaves the histogram exactly
// as n calls to Observe(v) would: the sum adds v n times instead of
// adding n·v, so it rounds the same way. Callers that tally a run's
// samples locally flush each distinct value once with it. n = 0 records
// nothing.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		for k := uint64(0); k < n; k++ {
			sum += v
		}
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && h.count.Load() > n {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// snapshot captures the histogram under no lock (counts are atomic).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	return s
}

// HistogramSnapshot is the serialised form of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last bucket is > Bounds[len-1]
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Max    float64   `json:"max"`
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts by
// linear interpolation inside the bucket that straddles the target rank.
// The first bucket interpolates from zero; the overflow bucket (beyond the
// last bound) reports the recorded Max. An empty histogram returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket: no upper bound
			return s.Max
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		frac := 1.0
		if c > 0 {
			frac = (rank - prev) / float64(c)
		}
		return lo + frac*(s.Bounds[i]-lo)
	}
	return s.Max
}

// Snapshot is a point-in-time copy of a registry. encoding/json emits map
// keys sorted, so the serialised form is deterministic for identical values.
// Build is the attribution header (internal/buildinfo): a pure function of
// the binary, so archived snapshots stay byte-comparable across runs of one
// build while naming the revision and toolchain that produced them.
type Snapshot struct {
	Build      map[string]string            `json:"build"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// JSON renders the snapshot as indented, deterministically ordered JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Registry)
}

// Default is the process-wide registry the cmd/ tools serialise with
// -metrics; library packages without an explicit registry publish here.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. A later call with different bounds returns the
// existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a callback that Snapshot invokes (outside the
// registry lock) before reading the instruments. Collectors bridge
// components that keep cheap non-atomic counters: they copy those values in
// with Counter.Store / Gauge.Set. A collector must not retain the registry
// lock assumptions — it may freely create instruments.
func (r *Registry) RegisterCollector(fn func(*Registry)) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Snapshot runs the collectors and returns a copy of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	collectors := append([]func(*Registry){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(r)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Build:      buildinfo.Map(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteFile serialises a snapshot of the registry to path.
func (r *Registry) WriteFile(path string) error {
	data, err := r.Snapshot().JSON()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteFiles writes the Default registry snapshot and the Default tracer's
// Chrome trace to the given paths; an empty path skips that output. It is
// the shared implementation behind every cmd/ tool's -metrics and -trace
// flags.
func WriteFiles(metricsPath, tracePath string) error {
	if metricsPath != "" {
		if err := Default.WriteFile(metricsPath); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := Trace.WriteChrome(tracePath); err != nil {
			return err
		}
	}
	return nil
}
