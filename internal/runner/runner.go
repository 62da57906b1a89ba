// Package runner is the deterministic parallel experiment harness behind
// every sweep in internal/experiments and the cmd/ drivers: a bounded
// worker pool whose results are bit-identical regardless of worker count,
// scheduling order or interruption.
//
// The determinism contract rests on three rules (DESIGN.md §9):
//
//   - per-shard seeding: shard i of a sweep rooted at seed s draws all of
//     its randomness from Seed(s, i), a splitmix64-style hash of (s, i).
//     No shard ever touches another shard's generator, so the assignment
//     of shards to workers cannot influence any result;
//   - index-ordered reduction: Map returns results in shard order and
//     callers fold them in that order, so floating-point accumulation is
//     associativity-stable across worker counts;
//   - no shared mutable state: a shard function may only read its Config
//     and write its own return value.
//
// On top of that contract the runner provides operational features the
// old ad-hoc goroutine fan-outs lacked: concurrency capped at
// Options.Workers (default runtime.NumCPU()), cooperative cancellation
// (SignalContext wires SIGINT) with a partial-result summary, per-trial
// JSON checkpointing so a killed sweep resumes where it stopped,
// content-addressed trial memoization (Options.Memo, keyed off
// Config.Fingerprint; see internal/memo and DESIGN.md §12) so previously
// computed trials are served from cache, and progress/ETA gauges
// published through the internal/metrics registry
// (runner.<name>.progress, runner.<name>.eta_seconds,
// runner.<name>.trials_completed, runner.<name>.trials_total).
//
// Unlike the simulator packages, the runner is allowed to read the wall
// clock: elapsed time feeds the operator-facing ETA gauge, never a
// simulated result. The walltime analyzer encodes exactly this exemption.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"time"

	"l15cache/internal/memo"
	"l15cache/internal/metrics"
)

// Options is the operator-facing knob set every experiment config embeds;
// the cmd/ tools map their -workers, -checkpoint and -memo/-memo-dir
// flags onto it.
type Options struct {
	// Workers caps the number of concurrent shard evaluations. Zero or
	// negative means runtime.NumCPU(). The value never influences
	// results, only wall-clock time.
	Workers int
	// Checkpoint, when non-empty, names a JSON file recording finished
	// shards at trial granularity. A rerun with the same Config resumes
	// from it, recomputing only the missing shards.
	Checkpoint string
	// Memo, when non-nil, is the content-addressed trial result cache
	// (internal/memo). Before dispatching a shard, Map looks up the key
	// derived from Config.Fingerprint and the shard identity; hits skip
	// the computation entirely, and every computed shard is stored back.
	// Reuse is sound because the determinism contract above makes a
	// shard's result a pure function of exactly what the key hashes
	// (DESIGN.md §12). Like Workers, a cache can change only wall-clock
	// time, never a result.
	Memo *memo.Cache
}

// workers resolves the effective pool size for n shards.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	return w
}

// Config identifies one Map invocation: its checkpoint section, metric
// names and seed root.
type Config struct {
	// Name identifies the sweep in checkpoints, metrics and cancellation
	// summaries, e.g. "makespan/U=0.6". Two Map calls sharing a
	// checkpoint file must use distinct names.
	Name string
	// RootSeed roots the per-shard seed derivation (see Seed).
	RootSeed int64
	// Options carries the worker-pool, checkpoint and memo settings.
	Options
	// Fingerprint is the canonical encoding (built with memo.Encoder) of
	// every trial input other than the shard identity: the experiment
	// config, workload parameters and kernel mode the shard function
	// closes over. It is the caller's half of the memo soundness
	// contract — every input that can influence a shard's result must be
	// encoded, and DESIGN.md §12 spells out the rules. nil disables
	// memoization for this Map call even when Options.Memo is set (the
	// right choice for side-effect-bearing trials, e.g. ones that emit
	// flight recordings).
	Fingerprint []byte
	// Registry receives the progress instruments; nil means
	// metrics.Default.
	Registry *metrics.Registry
}

// Shard is the unit of work handed to a shard function: its index in
// [0, n) and the RNG seed derived from the sweep's root seed.
type Shard struct {
	Index int
	Seed  int64
}

// RNG returns a fresh generator seeded for this shard. Every call returns
// an identical, independent stream.
func (s Shard) RNG() *rand.Rand { return rand.New(rand.NewSource(s.Seed)) }

// Seed derives the seed of shard index under root: a splitmix64-style
// avalanche hash of the pair, so consecutive indices produce uncorrelated
// streams and the derivation depends only on (root, index) — never on
// worker count or completion order.
func Seed(root int64, index int) int64 {
	z := uint64(root) ^ (0x9e3779b97f4a7c15 * (uint64(index) + 1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Canceled is returned by Map when the context was canceled before every
// shard finished. The completed prefix of results is valid (indices with
// Done set in the checkpoint), and Error renders the partial-result
// summary the cmd/ tools print on SIGINT.
type Canceled struct {
	Name  string
	Done  int
	Total int
	// Checkpoint echoes Options.Checkpoint so the summary can name the
	// resume file ("" when checkpointing was off).
	Checkpoint string
}

// Error renders the partial-result summary.
func (c *Canceled) Error() string {
	//lint:ignore hotalloc reached from cpu only through the (error).Error interface edge; a core never holds a runner.Canceled, whose text is built once per interrupted sweep
	msg := fmt.Sprintf("runner: %s interrupted after %d/%d trials", c.Name, c.Done, c.Total)
	if c.Checkpoint != "" {
		//lint:ignore hotalloc reached from cpu only through the (error).Error interface edge; a core never holds a runner.Canceled, whose text is built once per interrupted sweep
		return msg + "; rerun with -checkpoint " + c.Checkpoint + " to resume"
	}
	//lint:ignore hotalloc reached from cpu only through the (error).Error interface edge; a core never holds a runner.Canceled, whose text is built once per interrupted sweep
	return msg + "; rerun with -checkpoint to make interrupted sweeps resumable"
}

// Unwrap ties Canceled into the context error chain, so
// errors.Is(err, context.Canceled) holds.
func (c *Canceled) Unwrap() error { return context.Canceled }

// SignalContext returns a context canceled on SIGINT (and the stop
// function releasing the signal handler) — the cancellation source every
// cmd/ tool passes to its sweeps.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt)
}

// restoreCheckpoint decodes the bound section's finished shards into
// results (marking finished) and returns how many it restored. An entry
// that fails to decode, or whose index is out of range, invalidates only
// itself: it is dropped from the section and recomputed. The map
// iteration fills results by index, so its order is immaterial.
func restoreCheckpoint[T any](cp *checkpoint, results []T, finished []bool) int {
	restored := 0
	for key, raw := range cp.sec.Done {
		idx, err := strconv.Atoi(key)
		if err != nil || idx < 0 || idx >= len(results) {
			delete(cp.sec.Done, key)
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			delete(cp.sec.Done, key)
			continue
		}
		results[idx] = v
		if !finished[idx] {
			finished[idx] = true
			restored++
		}
	}
	return restored
}

// outcome carries one finished shard from a worker to the reducer,
// together with the wall-clock span marks (dispatch, shard-function start
// and end) the reducer turns into trace spans. The marks are operational
// data only — they never touch a result.
type outcome[T any] struct {
	index int
	value T
	err   error
	enq   time.Time
	start time.Time
	end   time.Time
}

// dispatch hands one shard index to a worker, stamped with its enqueue
// time so the trial's queue span covers dispatcher → worker pickup.
type dispatch struct {
	index int
	enq   time.Time
}

// Map evaluates fn over n shards on a bounded worker pool and returns the
// results in shard order. It is the single fan-out primitive of the
// experiment pipeline; see the package comment for the determinism
// contract.
//
// fn must derive all randomness from its Shard (Seed or RNG) and must not
// share mutable state with other shards. When checkpointing is enabled,
// T must round-trip through encoding/json.
//
// On a shard error, Map cancels the remaining work and returns the error
// of the lowest-indexed failing shard (deterministic under races). On
// context cancellation it returns *Canceled after persisting the finished
// shards to the checkpoint.
func Map[T any](ctx context.Context, cfg Config, n int, fn func(context.Context, Shard) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: %s: negative shard count %d", cfg.Name, n)
	}
	results := make([]T, n)
	finished := make([]bool, n)

	var cp *checkpoint
	restored := 0
	if cfg.Checkpoint != "" {
		var err error
		cp, err = openCheckpoint(cfg.Checkpoint, cfg.Name, cfg.RootSeed, n)
		if err != nil {
			return nil, err
		}
		restored = restoreCheckpoint(cp, results, finished)
	}

	// Memo lookup pass: any shard whose key is already in the trial
	// cache is restored without computing. Hits deliberately do not feed
	// the checkpoint — the checkpoint records what *this run* computed,
	// and a resume consults the cache again anyway.
	var memoKeys []memo.Key
	if cfg.Memo != nil {
		if cfg.Fingerprint == nil {
			cfg.Memo.Skipped()
		} else {
			memoKeys = make([]memo.Key, n)
			for i := 0; i < n; i++ {
				memoKeys[i] = memo.TrialKey(cfg.Fingerprint, i, Seed(cfg.RootSeed, i))
			}
			for i := 0; i < n; i++ {
				if finished[i] {
					continue
				}
				raw, ok := cfg.Memo.Get(memoKeys[i])
				if !ok {
					continue
				}
				var v T
				if err := json.Unmarshal(raw, &v); err != nil {
					// The entry verified at the cache layer but does not
					// decode as this sweep's trial type: schema drift.
					// Drop it and recompute; the store below repairs it.
					cfg.Memo.Discard(memoKeys[i])
					continue
				}
				results[i] = v
				finished[i] = true
				restored++
			}
		}
	}

	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}
	reg.Gauge("runner." + cfg.Name + ".trials_total").Set(float64(n))
	completedC := reg.Counter("runner." + cfg.Name + ".trials_completed")
	completedC.Store(uint64(restored))
	progressG := reg.Gauge("runner." + cfg.Name + ".progress")
	etaG := reg.Gauge("runner." + cfg.Name + ".eta_seconds")
	if n > 0 {
		progressG.Set(float64(restored) / float64(n))
	}

	pending := n - restored
	if pending == 0 {
		progressG.Set(1)
		etaG.Set(0)
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The sweep's wall-clock epoch anchors the ETA estimate and every
	// span timestamp.
	start := time.Now()
	spans := newSweepSpans(cfg.Name, cfg.RootSeed, start)
	poolSize := cfg.workers(pending)

	indices := make(chan dispatch)
	go func() { // dispatcher
		defer close(indices)
		for i := 0; i < n; i++ {
			if finished[i] {
				continue
			}
			select {
			case indices <- dispatch{index: i, enq: time.Now()}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	outs := make(chan outcome[T])
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range indices {
				fnStart := time.Now()
				v, err := fn(runCtx, Shard{Index: d.index, Seed: Seed(cfg.RootSeed, d.index)})
				outs <- outcome[T]{
					index: d.index, value: v, err: err,
					enq: d.enq, start: fnStart, end: time.Now(),
				}
			}
		}()
	}
	go func() { wg.Wait(); close(outs) }()

	// Index-ordered state lives only on this, the reducing goroutine.
	doneNew := 0
	var firstErr error
	firstErrIdx := n
	flushEvery := n/20 + 1
	for o := range outs {
		if o.err != nil {
			// Keep the lowest-indexed error so the reported failure does
			// not depend on scheduling.
			if o.index < firstErrIdx {
				firstErr, firstErrIdx = o.err, o.index
			}
			cancel()
			continue
		}
		redStart := time.Now()
		results[o.index] = o.value
		finished[o.index] = true
		if memoKeys != nil {
			if raw, merr := json.Marshal(o.value); merr == nil {
				// A failed store is surfaced through memo.store_errors,
				// never allowed to fail the sweep: the cache is an
				// optimisation, e.g. the memo dir may be read-only.
				_ = cfg.Memo.Put(memoKeys[o.index], raw)
			}
		}
		doneNew++
		completedC.Inc()
		progressG.Set(float64(restored+doneNew) / float64(n))
		if elapsed := time.Since(start); elapsed > 0 {
			perTrial := elapsed / time.Duration(doneNew)
			etaG.Set((time.Duration(pending-doneNew) * perTrial).Seconds())
		}
		if cp != nil {
			if err := cp.record(o.index, o.value); err != nil && firstErr == nil {
				firstErr, firstErrIdx = err, o.index
				cancel()
			}
			if doneNew%flushEvery == 0 {
				if err := cp.flush(); err != nil && firstErr == nil {
					firstErr, firstErrIdx = err, o.index
					cancel()
				}
			}
		}
		spans.trial(o.index, o.enq, o.start, o.end, redStart)
	}
	if cp != nil {
		if err := cp.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	spans.finish(poolSize, n, restored)

	if firstErr != nil {
		if firstErrIdx < n {
			return nil, fmt.Errorf("runner: %s shard %d: %w", cfg.Name, firstErrIdx, firstErr)
		}
		return nil, fmt.Errorf("runner: %s: %w", cfg.Name, firstErr)
	}
	if ctx.Err() != nil {
		return results, &Canceled{
			Name:       cfg.Name,
			Done:       restored + doneNew,
			Total:      n,
			Checkpoint: cfg.Checkpoint,
		}
	}
	etaG.Set(0)
	return results, nil
}
