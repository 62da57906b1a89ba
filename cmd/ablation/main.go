// Command ablation runs the design-choice ablations of DESIGN.md §4: the
// L1.5 way count ζ, the way size κ at fixed capacity, the two components of
// Algorithm 1 (way allocation vs λ-driven priorities), the SDU's per-way
// configuration delay, and the ETM's diminishing returns per extra way.
// These sweeps back the repository's design discussion rather than a
// specific paper figure.
//
// Usage:
//
//	ablation [-dags N] [-trials N] [-seed S] [-which zeta|kappa|prio|delay|etm|all]
//	         [-workers N] [-checkpoint file.json] [-memo] [-memo-dir DIR]
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
	"l15cache/internal/kernel"
)

func main() {
	dags := flag.Int("dags", 200, "DAG tasks per point (zeta/kappa/prio)")
	trials := flag.Int("trials", 20, "trials per point (delay)")
	which := flag.String("which", "all", "zeta, kappa, prio, delay, etm or all")
	cli.Main("ablation", func(ctx context.Context, sw *cli.Sweep) error {
		cfg := experiments.DefaultMakespanConfig()
		cfg.DAGs = *dags
		cfg.Seed = sw.Seed
		cfg.Run = sw.Run

		want := func(name string) bool { return *which == "all" || *which == name }
		ran := false

		if want("zeta") {
			ran = true
			res, err := experiments.AblateZeta(ctx, cfg, experiments.AblationZetaDefault())
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
		if want("kappa") {
			ran = true
			res, err := experiments.AblateWayBytes(ctx, cfg, experiments.AblationWayBytesDefault())
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
		if want("prio") {
			ran = true
			res, err := experiments.AblatePriorities(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
		if want("delay") {
			ran = true
			res, err := experiments.AblateConfigDelay(ctx, *trials, sw.Seed, sw.Run, kernel.Events, experiments.AblationDelayDefault())
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
		if want("etm") {
			ran = true
			fmt.Println("ablation — ETM cost vs ways (μ=10, δ=8KB, α=0.7; ⌈δ/κ⌉=4)")
			for _, p := range experiments.ETMDiminishingReturns(10, 8192, 8) {
				fmt.Printf("%10.0f%14.4f\n", p.Param, p.Value)
			}
			fmt.Println()
		}
		if !ran {
			return fmt.Errorf("unknown ablation %q", *which)
		}
		return nil
	})
}
