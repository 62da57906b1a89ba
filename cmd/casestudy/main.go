// Command casestudy regenerates Fig. 8(a,b): the success ratio of the
// proposed system and the three baselines (CMP|L1, CMP|L2, CMP|Shared-L1)
// on PARSEC-like periodic DAG task sets, swept over the target utilisation.
//
// Usage:
//
//	casestudy [-cores 8|16] [-trials N] [-step pct] [-seed S]
//	          [-workers N] [-memo] [-memo-dir DIR]
//
// Trials fan out on the internal/runner pool: -workers caps the
// concurrency (0 = NumCPU) without changing any result, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically, so a rerun of an
// interrupted run (Ctrl-C) over the same -memo-dir resumes at trial
// granularity. -flight
// additionally records one representative trial (the configured core
// count and scheduling, 60% utilisation, proposed system) into a flight
// recording that cmd/explain can dissect. An interrupt still flushes the
// partial -metrics/-trace/-flight files before exiting.
package main

import (
	"context"
	"flag"
	"fmt"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
)

func main() {
	cores := flag.Int("cores", 8, "core count (8 for Fig. 8(a), 16 for Fig. 8(b))")
	trials := flag.Int("trials", 200, "trials per utilisation point")
	step := flag.Float64("step", 0.05, "utilisation step")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	partitioned := flag.Bool("partitioned", false, "partition tasks to clusters instead of global scheduling")
	flightOut := flag.String("flight", "", "record one representative trial to this JSONL flight file")
	cli.Main("casestudy", func(ctx context.Context, sw *cli.Sweep) error {
		if !(*step > 0) {
			return fmt.Errorf("-step %g: want a positive utilisation step", *step)
		}
		cfg := experiments.DefaultCaseStudyConfig(*cores)
		cfg.Trials = *trials
		cfg.Seed = sw.Seed
		cfg.RT.Partitioned = *partitioned
		cfg.Run = sw.Run

		if rec := sw.Flight(*flightOut); rec != nil {
			if err := experiments.RecordCaseTrial(sw.Seed, cfg.RT, rec); err != nil {
				return err
			}
		}

		var utils []float64
		for u := 0.40; u <= 0.90+1e-9; u += *step {
			utils = append(utils, u)
		}
		res, err := experiments.RunCaseStudy(ctx, cfg, utils)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Print(res.Format())
		}
		return nil
	})
}
