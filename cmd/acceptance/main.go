// Command acceptance runs the analytical schedulability experiment of
// §4.2: the fraction of random DAG tasks whose safe makespan bound (Graham
// with communication costs folded into the consumer nodes) meets the
// implicit deadline, for the conventional edge costs versus Alg. 1's
// ETM-reduced costs, alongside the simulated ground truth.
//
// Usage:
//
//	acceptance [-dags N] [-cores M] [-seed S] [-workers N] [-checkpoint file.json]
//	           [-memo] [-memo-dir DIR]
//
// Trials fan out on the internal/runner pool: -workers caps the
// concurrency (0 = NumCPU) without changing any result, -checkpoint makes
// an interrupted run (Ctrl-C) resumable at trial granularity, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
)

func main() {
	dags := flag.Int("dags", 200, "tasks per utilisation point")
	cores := flag.Int("cores", 8, "core count m")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	cli.Main("acceptance", func(ctx context.Context, sw *cli.Sweep) error {
		cfg := experiments.DefaultAcceptanceConfig()
		cfg.DAGs = *dags
		cfg.Cores = *cores
		cfg.Seed = sw.Seed
		cfg.Run = sw.Run

		utils := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
		points, err := experiments.AcceptanceRatio(ctx, cfg, utils)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(experiments.AcceptanceCSV(points))
		} else {
			fmt.Print(experiments.FormatAcceptance(points))
		}
		return nil
	})
}
