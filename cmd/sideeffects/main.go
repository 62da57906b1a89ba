// Command sideeffects regenerates Fig. 8(c): the §5.3 side-effects analysis
// of the proposed system under high demand — the L1.5 way utilisation and
// the mis-configuration ratio φ for 8/16-core SoCs at 80% and 100% target
// utilisation.
//
// Usage:
//
//	sideeffects [-trials N] [-seed S] [-workers N] [-memo]
//	            [-memo-dir DIR]
//
// Trials fan out on the internal/runner pool: -workers caps the
// concurrency (0 = NumCPU) without changing any result, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically, so a rerun of an
// interrupted run (Ctrl-C) over the same -memo-dir resumes at trial
// granularity.
package main

import (
	"context"
	"flag"
	"fmt"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
	"l15cache/internal/rtsim"
	"l15cache/internal/workload"
)

func main() {
	trials := flag.Int("trials", 50, "trials per configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	cli.Main("sideeffects", func(ctx context.Context, sw *cli.Sweep) error {
		cfg := experiments.SideEffectsConfig{
			Trials: *trials,
			Seed:   sw.Seed,
			RT:     rtsim.DefaultConfig(),
			Set:    workload.DefaultTaskSetParams(),
			Run:    sw.Run,
		}
		pts, err := experiments.RunSideEffects(ctx, cfg, []int{8, 16}, []float64{0.8, 1.0})
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(experiments.SideEffectsCSV(pts))
		} else {
			fmt.Print(experiments.FormatSideEffects(pts))
		}
		return nil
	})
}
