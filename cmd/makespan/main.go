// Command makespan regenerates the makespan evaluation of the paper:
// Fig. 7 (a,b,c) — the normalised average makespan of the proposed system
// against CMP|L1 and CMP|L2 under varied utilisation, layer width p and
// critical-path ratio — and the matching worst-case blocks of Tab. 2.
//
// Usage:
//
//	makespan [-sweep u|p|cpr|all] [-dags N] [-instances N] [-cores N]
//	         [-seed S] [-workers N] [-memo] [-memo-dir DIR]
//
// With the defaults (500 DAGs × 10 instances, as in §5.1) a full run takes
// a few minutes; use -dags 100 for a quick pass. Trials fan out on the
// internal/runner pool: -workers caps the concurrency (0 = NumCPU) without
// changing any result, and -memo/-memo-dir enable the content-addressed
// trial result cache (internal/memo): a -memo-dir shared between runs
// serves every previously computed trial from disk, byte-identically, so a
// rerun of an interrupted run (Ctrl-C) over the same -memo-dir resumes at
// trial granularity.
package main

import (
	"context"
	"flag"
	"fmt"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
)

func main() {
	sweep := flag.String("sweep", "all", "which sweep to run: u, p, cpr or all")
	dags := flag.Int("dags", 500, "DAG tasks per parameter point")
	instances := flag.Int("instances", 10, "instances per DAG (first is cold)")
	cores := flag.Int("cores", 8, "number of cores m")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted tables")
	cli.Main("makespan", func(ctx context.Context, sw *cli.Sweep) error {
		cfg := experiments.DefaultMakespanConfig()
		cfg.DAGs = *dags
		cfg.Instances = *instances
		cfg.Cores = *cores
		cfg.Seed = sw.Seed
		cfg.Run = sw.Run

		type sweepRun struct {
			name string
			run  func() (*experiments.MakespanSweep, error)
		}
		runs := []sweepRun{
			{"u", func() (*experiments.MakespanSweep, error) {
				return experiments.SweepUtilization(ctx, cfg, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
			}},
			{"p", func() (*experiments.MakespanSweep, error) {
				return experiments.SweepWidth(ctx, cfg, []float64{9, 12, 15, 18, 21})
			}},
			{"cpr", func() (*experiments.MakespanSweep, error) {
				return experiments.SweepCPR(ctx, cfg, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
			}},
		}
		ran := false
		for _, r := range runs {
			if *sweep != "all" && *sweep != r.name {
				continue
			}
			ran = true
			s, err := r.run()
			if err != nil {
				return err
			}
			if *csv {
				fmt.Print(s.CSV())
				continue
			}
			fmt.Print(s.FormatFig7())
			fmt.Println()
			fmt.Print(s.FormatTable2())
			fmt.Println()
		}
		if !ran {
			return fmt.Errorf("unknown sweep %q (want u, p, cpr or all)", *sweep)
		}
		return nil
	})
}
