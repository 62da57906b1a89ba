package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// TestCounterConcurrent hammers one counter from many goroutines; run under
// -race this also proves the handle is safe to share.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if again := r.Counter("c"); again != c {
		t.Fatal("Counter did not return the same handle on second lookup")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 1.5+8*100*0.5 {
		t.Fatalf("gauge after concurrent Add = %v, want %v", got, 1.5+8*100*0.5)
	}
}

// TestHistogramBucketEdges pins the bucket semantics: bucket i counts
// v <= bounds[i], the final implicit bucket counts overflow.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.5, 2, 2.5, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// <=1: {0, 1}; <=2: {1.5, 2}; <=4: {2.5, 4}; >4: {5, 100}.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Sum != 116 {
		t.Fatalf("sum = %v, want 116", s.Sum)
	}
	if s.Max != 100 {
		t.Fatalf("max = %v, want 100", s.Max)
	}
	if s.Mean != 116.0/8 {
		t.Fatalf("mean = %v, want %v", s.Mean, 116.0/8)
	}
}

func TestHistogramUnsortedBoundsAndReuse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{4, 1, 2})
	got := h.Bounds()
	want := []float64{1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
	// Second lookup with different bounds returns the existing histogram.
	if again := r.Histogram("h", []float64{99}); again != h {
		t.Fatal("Histogram did not return the same handle on second lookup")
	}
}

// TestSnapshotDeterministic asserts two registries with identical contents
// serialise to byte-identical JSON regardless of insertion order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter("count." + n).Add(7)
			r.Gauge("gauge." + n).Set(3.25)
			r.Histogram("hist."+n, []float64{1, 2}).Observe(1)
		}
		return r
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	ja, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", ja, jb)
	}
}

func TestCollectorRunsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	calls := 0
	stats := struct{ hits uint64 }{}
	r.RegisterCollector(func(r *Registry) {
		calls++
		r.Counter("comp.hits").Store(stats.hits)
	})
	stats.hits = 41
	s := r.Snapshot()
	if calls != 1 {
		t.Fatalf("collector calls = %d, want 1", calls)
	}
	if s.Counters["comp.hits"] != 41 {
		t.Fatalf("comp.hits = %d, want 41", s.Counters["comp.hits"])
	}
	stats.hits = 42
	if s2 := r.Snapshot(); s2.Counters["comp.hits"] != 42 {
		t.Fatalf("comp.hits after update = %d, want 42", s2.Counters["comp.hits"])
	}
}

func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	path := t.TempDir() + "/m.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := readJSON(path, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["x"] != 1 {
		t.Fatalf("round-tripped x = %d, want 1", snap.Counters["x"])
	}
}

// TestHistogramQuantileEdgeCases covers the empty histogram, the
// single-bucket histogram and the overflow bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	empty := NewHistogram([]float64{1}).snapshot()
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram quantile = %g, want NaN", q)
	}

	single := NewHistogram([]float64{10})
	for i := 0; i < 4; i++ {
		single.Observe(5)
	}
	s := single.snapshot()
	if q := s.Quantile(0.5); q != 5 {
		t.Errorf("single-bucket median = %g, want 5 (midpoint of [0,10])", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("q=0 = %g, want bucket lower bound 0", q)
	}
	if q := s.Quantile(1); q != 10 {
		t.Errorf("q=1 = %g, want bucket upper bound 10", q)
	}

	// Overflow bucket: samples beyond the last bound report Max.
	over := NewHistogram([]float64{1})
	over.Observe(100)
	if q := over.snapshot().Quantile(0.99); q != 100 {
		t.Errorf("overflow quantile = %g, want Max 100", q)
	}

	// Clamping: out-of-range q behaves like 0 and 1.
	if a, b := s.Quantile(-3), s.Quantile(0); a != b {
		t.Errorf("q<0 not clamped: %g vs %g", a, b)
	}
	if a, b := s.Quantile(7), s.Quantile(1); a != b {
		t.Errorf("q>1 not clamped: %g vs %g", a, b)
	}
}

// TestHistogramQuantileInterpolation checks the linear interpolation on a
// two-bucket histogram with a known distribution.
func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	for i := 0; i < 2; i++ {
		h.Observe(5) // bucket (0,10]
	}
	for i := 0; i < 2; i++ {
		h.Observe(15) // bucket (10,20]
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q != 10 {
		t.Errorf("median = %g, want 10 (boundary of the two buckets)", q)
	}
	if q := s.Quantile(0.25); q != 5 {
		t.Errorf("q1 = %g, want 5 (midpoint of first bucket)", q)
	}
	if q := s.Quantile(0.75); q != 15 {
		t.Errorf("q3 = %g, want 15 (midpoint of second bucket)", q)
	}
}

// TestObserveNMatchesRepeatedObserve requires ObserveN(v, n) to leave a
// histogram exactly as n calls to Observe(v) do — bucket counts, count,
// sum, mean and max — on a fresh histogram (where Observe takes the first
// sample as the max whatever its sign), after earlier samples, for
// negative and fractional values, and for n = 0.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	type step struct {
		v float64
		n uint64
	}
	cases := map[string][]step{
		"first":          {{3, 5}},
		"first negative": {{-2, 3}},
		"zero n":         {{1, 0}},
		"zero n first":   {{1, 0}, {-4, 2}},
		"after samples":  {{1, 2}, {7, 1}, {0, 4}, {7, 3}},
		"negative later": {{0.5, 1}, {-3, 6}},
		"fractional sum": {{0.1, 10}, {0.2, 7}},
		"overflow":       {{100, 3}, {2, 1}},
	}
	bounds := []float64{0, 1, 2, 4, 8, 16, 32}
	for name, steps := range cases {
		batched, single := NewHistogram(bounds), NewHistogram(bounds)
		for _, st := range steps {
			batched.ObserveN(st.v, st.n)
			for range st.n {
				single.Observe(st.v)
			}
		}
		if got, want := batched.snapshot(), single.snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ObserveN snapshot\n%+v\nwant\n%+v", name, got, want)
		}
	}
}
