// Package cli holds the flag plumbing shared by the cmd/ tools: the
// -version build-attribution flag and the -telemetry time-series sampler
// flag every tool takes, and Main, the sweep harness the six artefact
// commands (makespan, casestudy, sideeffects, ablation, acceptance,
// repro) run under.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"l15cache/internal/buildinfo"
	"l15cache/internal/flight"
	"l15cache/internal/memo"
	"l15cache/internal/metrics"
	"l15cache/internal/runner"
	"l15cache/internal/telemetry"
)

// VersionFlag registers -version on the default flag set. Call the
// returned handler immediately after flag.Parse: when the flag was given
// it prints the build attribution line (module, revision, toolchain) and
// exits 0.
func VersionFlag() func() { return versionFlag(flag.CommandLine) }

func versionFlag(fs *flag.FlagSet) func() {
	v := fs.Bool("version", false, "print build/version information and exit")
	return func() {
		if *v {
			fmt.Println(buildinfo.String())
			os.Exit(0)
		}
	}
}

// TelemetryFlag registers -telemetry on the default flag set. Call the
// returned activator after flag.Parse: when a path was given it starts
// the wall-clock sampler over the merged metrics registries and returns
// the flush writing the sampled ring there as JSONL; with no path both
// steps are no-ops. Tools flush wherever they write their -metrics
// artifacts (normal exit and the interrupt path) — the flush is safe to
// call more than once. Sampling observes the run and never feeds a value
// back, so the flag can never change a result.
func TelemetryFlag() func() func() error { return telemetryFlag(flag.CommandLine) }

func telemetryFlag(fs *flag.FlagSet) func() func() error {
	path := fs.String("telemetry", "",
		"sample merged metrics on a wall-clock ticker and write the series as JSONL to this file (never changes results)")
	return func() func() error {
		_, flush := telemetry.StartFlag(*path)
		return flush
	}
}

// Sweep holds the flags every artefact command takes (-seed -workers
// -checkpoint -memo -memo-dir -metrics -trace -telemetry -version). Main
// hands it to the command's body, which reads Seed and Run and may ask
// for a flight recording; Main writes every requested artifact on every
// exit path, so a failed or interrupted sweep (Ctrl-C → runner.Canceled)
// still leaves complete partial files behind.
type Sweep struct {
	// Seed is the -seed base RNG seed.
	Seed int64
	// Run carries -workers, -checkpoint and the cache -memo/-memo-dir
	// describe, built before the body runs.
	Run runner.Options

	fs             *flag.FlagSet
	memo           bool
	memoDir        string
	metricsOut     string
	traceOut       string
	showVersion    func()
	startTelemetry func() func() error
	flushes        []func() error
}

// newSweep registers the sweep flags on fs.
func newSweep(fs *flag.FlagSet) *Sweep {
	s := &Sweep{fs: fs}
	fs.Int64Var(&s.Seed, "seed", 1, "base RNG seed")
	fs.IntVar(&s.Run.Workers, "workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	fs.StringVar(&s.Run.Checkpoint, "checkpoint", "", "JSON checkpoint file; an interrupted sweep resumes from it")
	fs.BoolVar(&s.memo, "memo", false, "enable the in-memory trial result cache (never changes results)")
	fs.StringVar(&s.memoDir, "memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
	fs.StringVar(&s.metricsOut, "metrics", "", "write a metrics-registry JSON snapshot to this file")
	fs.StringVar(&s.traceOut, "trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	s.showVersion = versionFlag(fs)
	s.startTelemetry = telemetryFlag(fs)
	return s
}

// Main is the entry point of an artefact command. Register the command's
// own flags on the default flag set, then call Main with the command name
// (the log prefix) and the body: Main adds the sweep flags, parses
// os.Args, starts the telemetry sampler, builds the trial cache and runs
// body under a context cancelled by an interrupt. Whatever body returns,
// Main then writes -metrics, -trace, -telemetry and every file registered
// through Flight, each independently of the others' success. On any
// error — body's, the cache's or a write's — it logs every one and exits 1.
func Main(name string, body func(ctx context.Context, s *Sweep) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	s := newSweep(flag.CommandLine)
	if err := s.exec(context.Background(), os.Args[1:], body); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			log.Print(line)
		}
		os.Exit(1)
	}
}

// exec is Main up to the exit: it returns body's error (or the cache's)
// joined with every write error.
func (s *Sweep) exec(ctx context.Context, args []string, body func(ctx context.Context, s *Sweep) error) error {
	if err := s.fs.Parse(args); err != nil {
		return err
	}
	s.showVersion()
	flushTelemetry := s.startTelemetry()
	ctx, stop := runner.SignalContext(ctx)
	defer stop()

	errs := []error{s.run(ctx, body)}
	if s.metricsOut != "" {
		errs = append(errs, metrics.Default.WriteFile(s.metricsOut))
	}
	if s.traceOut != "" {
		errs = append(errs, metrics.Trace.WriteChrome(s.traceOut))
	}
	errs = append(errs, flushTelemetry())
	for _, flush := range s.flushes {
		errs = append(errs, flush())
	}
	return errors.Join(errs...)
}

func (s *Sweep) run(ctx context.Context, body func(ctx context.Context, s *Sweep) error) error {
	cache, err := memo.FromFlags(s.memo, s.memoDir)
	if err != nil {
		return err
	}
	s.Run.Memo = cache
	return body(ctx, s)
}

// Flight returns a recorder whose recording Main writes to path (.jsonl
// or .bin) on every exit path, or nil — recording off — when path is
// empty. Call it from the body.
func (s *Sweep) Flight(path string) *flight.Recorder {
	if path == "" {
		return nil
	}
	rec := flight.New()
	s.flushes = append(s.flushes, func() error {
		if err := flight.WriteFile(path, rec.Snapshot()); err != nil {
			return err
		}
		log.Printf("wrote %s (%d events, %d dropped)", path, rec.Len(), rec.Dropped())
		return nil
	})
	return rec
}
