package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"

	"l15cache/internal/memo"
	"l15cache/internal/metrics"
)

// square is the trivial deterministic shard function most tests use.
func square(_ context.Context, s Shard) (int, error) { return s.Index * s.Index, nil }

func TestMapOrderedResults(t *testing.T) {
	got, err := Map(context.Background(), Config{Name: "t/order", Options: Options{Workers: 4}}, 50, square)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestWorkerCountInvariance is the core determinism guarantee: the same
// sweep at 1 worker and at 8 workers must produce bit-identical output,
// including the floating-point draws each shard makes from its RNG.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		res, err := Map(context.Background(),
			Config{Name: fmt.Sprintf("t/invariance/w%d", workers), RootSeed: 42, Options: Options{Workers: workers}},
			200,
			func(_ context.Context, s Shard) (float64, error) {
				r := s.RNG()
				sum := 0.0
				for i := 0; i < 100; i++ {
					sum += r.NormFloat64()
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("shard %d: workers=1 gives %v, workers=8 gives %v", i, serial[i], parallel[i])
		}
	}
}

func TestSeedDependsOnIndexOnly(t *testing.T) {
	if Seed(1, 0) == Seed(1, 1) {
		t.Error("adjacent shards share a seed")
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("different roots share a seed")
	}
	if Seed(7, 13) != Seed(7, 13) {
		t.Error("seed derivation is not a pure function")
	}
}

// TestGoroutineBound is the regression test for the unbounded fan-out the
// runner replaced (one goroutine per trial in the old casestudy/makespan
// loops): with W workers, the peak goroutine count may exceed the
// baseline only by W plus the runner's fixed overhead (dispatcher +
// pool closer), regardless of trial count.
func TestGoroutineBound(t *testing.T) {
	const workers = 4
	const trials = 500
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	_, err := Map(context.Background(), Config{Name: "t/bound", Options: Options{Workers: workers}}, trials,
		func(_ context.Context, s Shard) (int, error) {
			g := int64(runtime.NumGoroutine())
			for {
				old := peak.Load()
				if g <= old || peak.CompareAndSwap(old, g) {
					break
				}
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed overhead: dispatcher + wait-closer, plus slack for test
	// runner internals.
	limit := int64(baseline + workers + 4)
	if p := peak.Load(); p > limit {
		t.Errorf("peak goroutines %d exceeds workers+O(1) bound %d (baseline %d, %d trials)",
			p, limit, baseline, trials)
	}
}

func TestMapErrorIsLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), Config{Name: "t/err", Options: Options{Workers: 8}}, 100,
		func(_ context.Context, s Shard) (int, error) {
			if s.Index%10 == 3 { // fails at 3, 13, 23, ...
				return 0, fmt.Errorf("shard %d: %w", s.Index, boom)
			}
			return 1, nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// The dispatcher stops on the first failure, but whichever subset of
	// failures raced through, the reported shard must be the lowest
	// failing index among them — and shard 3 always runs first on any
	// worker count because indices are dispatched in order.
	want := "runner: t/err shard 3:"
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("err = %q, want prefix %q", got, want)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, Config{Name: "t/cancel", Options: Options{Workers: 2}}, 1000,
		func(_ context.Context, s Shard) (int, error) {
			if ran.Add(1) == 10 {
				cancel()
			}
			return 0, nil
		})
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v, want *Canceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("Canceled does not unwrap to context.Canceled")
	}
	if c.Done >= c.Total || c.Total != 1000 {
		t.Errorf("partial summary %d/%d nonsensical", c.Done, c.Total)
	}
	if int64(c.Done) > ran.Load() {
		t.Errorf("summary claims %d done, only %d ran", c.Done, ran.Load())
	}
}

// TestCheckpointResume kills a sweep partway, then reruns it with a fresh
// cache over the same memo dir — the sweep's on-disk checkpoint — and
// verifies (a) only the missing shards are recomputed, (b) the final
// results equal an uninterrupted run's and (c) a third run recomputes
// nothing.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	fp := memo.NewEncoder("runner-resume").Fingerprint()
	draw := func(_ context.Context, s Shard) (float64, error) {
		return s.RNG().Float64(), nil
	}
	// run sweeps 60 shards through a new Cache over dir, counting calls.
	run := func(ctx context.Context, hook func()) ([]float64, int, error) {
		cache, err := memo.New(memo.Options{Dir: dir, Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Name: "t/resume", RootSeed: 9, Options: Options{Workers: 1, Memo: cache},
			Fingerprint: fp, Registry: metrics.NewRegistry()}
		var ran atomic.Int64
		got, err := Map(ctx, cfg, 60, func(c context.Context, s Shard) (float64, error) {
			ran.Add(1)
			hook()
			return draw(c, s)
		})
		return got, int(ran.Load()), err
	}

	// Interrupted first attempt: cancel after 25 of 60 trials.
	ctx, cancel := context.WithCancel(context.Background())
	var first atomic.Int64
	_, _, err := run(ctx, func() {
		if first.Add(1) == 25 {
			cancel()
		}
	})
	var canceled *Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("first attempt: err = %v, want *Canceled", err)
	}

	got, re, err := run(context.Background(), func() {})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if re != 60-canceled.Done {
		t.Errorf("resume recomputed %d shards, want %d (memo dir had %d)", re, 60-canceled.Done, canceled.Done)
	}

	// Reference: clean run without a cache.
	ref, err := Map(context.Background(), Config{Name: "t/resume-ref", RootSeed: 9, Options: Options{Workers: 3}}, 60, draw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("shard %d: resumed %v != clean %v", i, got[i], ref[i])
		}
	}

	if _, again, err := run(context.Background(), func() {}); err != nil || again != 0 {
		t.Errorf("completed sweep recomputed %d shards (err %v)", again, err)
	}
}

func TestProgressMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := Map(context.Background(), Config{Name: "t/progress", Options: Options{Workers: 2}, Registry: reg}, 30, square); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.t/progress.trials_completed"]; got != 30 {
		t.Errorf("trials_completed = %d, want 30", got)
	}
	if got := snap.Gauges["runner.t/progress.trials_total"]; got != 30 {
		t.Errorf("trials_total = %g, want 30", got)
	}
	if got := snap.Gauges["runner.t/progress.progress"]; got != 1 {
		t.Errorf("progress = %g, want 1", got)
	}
	if got := snap.Gauges["runner.t/progress.eta_seconds"]; got != 0 {
		t.Errorf("eta after completion = %g, want 0", got)
	}
}

// TestSignalContext delivers a real SIGINT to the process and verifies
// the context cancels — the wiring every cmd/ tool relies on.
func TestSignalContext(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("sending SIGINT: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-make(chan struct{}): // unreachable; Done must already be closed or close soon
	}
	if ctx.Err() == nil {
		t.Error("context not canceled after SIGINT")
	}
}

func TestZeroShards(t *testing.T) {
	got, err := Map(context.Background(), Config{Name: "t/zero"}, 0, square)
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
	if _, err := Map(context.Background(), Config{Name: "t/neg"}, -1, square); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestMemoRoundTrip runs the same sweep twice against one shared cache:
// the second run must invoke the shard function zero times and still
// produce identical results, at any worker count.
func TestMemoRoundTrip(t *testing.T) {
	cache, err := memo.New(memo.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fp := memo.NewEncoder("runner-test").Fingerprint()
	draw := func(_ context.Context, s Shard) (float64, error) {
		return s.RNG().Float64(), nil
	}
	cfg := Config{Name: "t/memo-cold", RootSeed: 11,
		Options: Options{Workers: 4, Memo: cache}, Fingerprint: fp}
	cold, err := Map(context.Background(), cfg, 40, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		warm, err := Map(context.Background(),
			Config{Name: fmt.Sprintf("t/memo-warm-w%d", workers), RootSeed: 11,
				Options: Options{Workers: workers, Memo: cache}, Fingerprint: fp},
			40,
			func(c context.Context, s Shard) (float64, error) {
				ran.Add(1)
				return draw(c, s)
			})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: warm run recomputed %d shards", workers, ran.Load())
		}
		for i := range cold {
			if warm[i] != cold[i] {
				t.Fatalf("workers=%d shard %d: warm %v != cold %v", workers, i, warm[i], cold[i])
			}
		}
	}
}

// TestMemoOnVsOffByteIdentity is the runner-level half of the memo
// soundness gate: memo-off, memo-cold and memo-warm runs of one sweep
// must JSON-encode to identical bytes at several worker counts.
func TestMemoOnVsOffByteIdentity(t *testing.T) {
	fp := memo.NewEncoder("runner-identity").Fingerprint()
	draw := func(_ context.Context, s Shard) (float64, error) {
		r := s.RNG()
		sum := 0.0
		for i := 0; i < 50; i++ {
			sum += r.NormFloat64()
		}
		return sum, nil
	}
	encode := func(name string, workers int, cache *memo.Cache) []byte {
		res, err := Map(context.Background(),
			Config{Name: name, RootSeed: 3,
				Options: Options{Workers: workers, Memo: cache}, Fingerprint: fp},
			30, draw)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	off := encode("t/ident-off", 1, nil)
	cache, err := memo.New(memo.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 7} {
		cold := encode(fmt.Sprintf("t/ident-cold-w%d", workers), workers, cache)
		if string(cold) != string(off) {
			t.Errorf("workers=%d: memo-on run differs from memo-off baseline", workers)
		}
	}
}

// TestMemoDiskReuse checks the cross-process path the CI memo-smoke job
// exercises: a second run with a fresh Cache over the same -memo-dir
// recomputes nothing and counts disk hits.
func TestMemoDiskReuse(t *testing.T) {
	dir := t.TempDir()
	fp := memo.NewEncoder("runner-disk").Fingerprint()
	run := func(name string, fn func(context.Context, Shard) (int, error)) *metrics.Registry {
		reg := metrics.NewRegistry()
		cache, err := memo.New(memo.Options{Dir: dir, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Map(context.Background(),
			Config{Name: name, RootSeed: 5, Options: Options{Workers: 2, Memo: cache},
				Fingerprint: fp, Registry: reg},
			20, fn); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	run("t/disk-cold", square)
	var ran atomic.Int64
	reg := run("t/disk-warm", func(_ context.Context, s Shard) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if ran.Load() != 0 {
		t.Errorf("warm run recomputed %d shards despite memo dir", ran.Load())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["memo.hits_disk"]; got != 20 {
		t.Errorf("hits_disk = %d, want 20", got)
	}
}

// TestMemoCorruptValueRecomputed: a stored value the runner cannot decode
// into T must be discarded and recomputed, not crash the sweep.
func TestMemoCorruptValueRecomputed(t *testing.T) {
	reg := metrics.NewRegistry()
	cache, err := memo.New(memo.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fp := memo.NewEncoder("runner-corrupt").Fingerprint()
	// Poison shard 2's key with JSON that does not decode as int.
	if err := cache.Put(memo.TrialKey(fp, 2, Seed(1, 2)), []byte(`"not an int"`)); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	got, err := Map(context.Background(),
		Config{Name: "t/memo-corrupt", RootSeed: 1,
			Options: Options{Workers: 1, Memo: cache}, Fingerprint: fp},
		5,
		func(c context.Context, s Shard) (int, error) {
			ran.Add(1)
			return square(c, s)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 4 {
		t.Errorf("poisoned shard result = %d, want 4", got[2])
	}
	if ran.Load() != 5 {
		t.Errorf("ran %d shards, want all 5 (cold cache + poisoned entry)", ran.Load())
	}
	if got := reg.Snapshot().Counters["memo.corrupt"]; got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
}

// TestMemoNilFingerprintSkips: Options.Memo without a fingerprint must
// disable memoization and count the declined opportunity.
func TestMemoNilFingerprintSkips(t *testing.T) {
	reg := metrics.NewRegistry()
	cache, err := memo.New(memo.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "t/memo-skip", Options: Options{Workers: 1, Memo: cache}}
	for i := 0; i < 2; i++ {
		var ran atomic.Int64
		if _, err := Map(context.Background(), cfg, 5, func(c context.Context, s Shard) (int, error) {
			ran.Add(1)
			return square(c, s)
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 5 {
			t.Errorf("run %d: ran %d shards, want 5 (memo must be inert)", i, ran.Load())
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["memo.skipped"]; got != 2 {
		t.Errorf("skipped = %d, want 2", got)
	}
	if cache.Len() != 0 {
		t.Errorf("cache populated (%d entries) without a fingerprint", cache.Len())
	}
}
