// Command repro is the one-shot reproduction driver: it regenerates every
// table and figure of the paper (Fig. 7, Tab. 2, Fig. 8(a,b,c), §5.4) plus
// this repository's ablations and analytical experiments, and writes a
// single markdown report.
//
// Usage:
//
//	repro [-quick] [-o report.md] [-seed S] [-workers N] [-memo]
//	      [-memo-dir DIR] [-metrics m.json] [-trace t.json]
//	      [-flight rec.jsonl]
//
// -quick runs reduced sample sizes (~30 s); the default runs the paper's
// full sizes (500 DAGs × 10 instances, 200 trials — several minutes).
// Every randomized sweep fans out on the internal/runner pool: -workers
// caps the concurrency (0 = NumCPU) without changing any result, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically, so a rerun of an
// interrupted run (Ctrl-C) over the same -memo-dir resumes at trial
// granularity.
// -metrics serialises the unified metrics registry (scheduler wave counts,
// rtsim counters, and the cycle-accurate smoke run's L1/L1.5/L2 hit+miss
// counters and SDU latency histograms) as stable JSON — the artifact the CI
// smoke job archives. -trace writes a Chrome trace_event file. -flight
// records one representative Fig. 8 case-study trial plus the
// cycle-accurate smoke run into a flight recording that cmd/explain can
// dissect; the recording is a pure function of -seed. An interrupt
// (Ctrl-C) still flushes the partial -metrics/-trace/-flight files before
// exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"l15cache/internal/area"
	"l15cache/internal/cli"
	"l15cache/internal/experiments"
	"l15cache/internal/metrics"
	"l15cache/internal/monitor"
	"l15cache/internal/rtsim"
	"l15cache/internal/soc"
	"l15cache/internal/workload"
)

var (
	quick     = flag.Bool("quick", false, "reduced sample sizes (~30s instead of minutes)")
	out       = flag.String("o", "repro_report.md", "output report path ('-' for stdout)")
	flightOut = flag.String("flight", "", "write a JSONL flight recording of a representative trial")
)

func main() { cli.Main("repro", reproduce) }

func reproduce(ctx context.Context, sw *cli.Sweep) error {
	rec := sw.Flight(*flightOut)

	var sb strings.Builder
	sb.WriteString("# Reproduction report — L1.5 Cache co-design (DAC 2024)\n\n")
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(&sb, "Mode: %s, seed %d. See EXPERIMENTS.md for the paper-side numbers.\n\n", mode, sw.Seed)

	mk := experiments.DefaultMakespanConfig()
	mk.Seed = sw.Seed
	mk.Run = sw.Run
	cs8 := experiments.DefaultCaseStudyConfig(8)
	cs16 := experiments.DefaultCaseStudyConfig(16)
	cs8.Seed, cs16.Seed = sw.Seed, sw.Seed
	cs8.Run, cs16.Run = sw.Run, sw.Run
	seTrials := 50
	utils := []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90}
	if *quick {
		mk.DAGs = 60
		cs8.Trials, cs16.Trials = 25, 25
		seTrials = 5
		utils = []float64{0.40, 0.50, 0.60, 0.70, 0.80, 0.90}
	}

	section := func(title string) { fmt.Fprintf(&sb, "\n## %s\n\n```\n", title) }
	endSection := func() { sb.WriteString("```\n") }
	step := func(name string) { log.Printf("running %s ...", name) }

	// Fig. 7 + Tab. 2.
	type sweepRun struct {
		name string
		run  func() (*experiments.MakespanSweep, error)
	}
	for _, sr := range []sweepRun{
		{"Fig. 7(a) + Tab. 2 left — utilisation sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepUtilization(ctx, mk, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		}},
		{"Fig. 7(b) + Tab. 2 middle — width sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepWidth(ctx, mk, []float64{9, 12, 15, 18, 21})
		}},
		{"Fig. 7(c) + Tab. 2 right — cpr sweep", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepCPR(ctx, mk, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
		}},
	} {
		step(sr.name)
		s, err := sr.run()
		if err != nil {
			return err
		}
		section(sr.name)
		sb.WriteString(s.FormatFig7())
		sb.WriteString("\n")
		sb.WriteString(s.FormatTable2())
		endSection()
	}

	// Fig. 8(a,b).
	for _, cfg := range []experiments.CaseStudyConfig{cs8, cs16} {
		name := fmt.Sprintf("Fig. 8 — success ratio, %d cores", cfg.Cores)
		step(name)
		res, err := experiments.RunCaseStudy(ctx, cfg, utils)
		if err != nil {
			return err
		}
		section(name)
		sb.WriteString(res.Format())
		endSection()
	}

	// Fig. 8(c).
	step("Fig. 8(c) — side effects")
	sePts, err := experiments.RunSideEffects(ctx, experiments.SideEffectsConfig{
		Trials: seTrials,
		Seed:   sw.Seed,
		RT:     rtsim.DefaultConfig(),
		Set:    workload.DefaultTaskSetParams(),
		Run:    sw.Run,
	}, []int{8, 16}, []float64{0.8, 1.0})
	if err != nil {
		return err
	}
	section("Fig. 8(c) — L1.5 utilisation and φ")
	sb.WriteString(experiments.FormatSideEffects(sePts))
	endSection()

	// §5.4 area.
	step("§5.4 — hardware overhead")
	rep, err := area.CompareOverhead(area.Synopsys28nm())
	if err != nil {
		return err
	}
	section("§5.4 — hardware overhead")
	sb.WriteString(rep.Format())
	endSection()

	// Ablations.
	abl := mk
	if *quick {
		abl.DAGs = 40
	} else {
		abl.DAGs = 200
	}
	step("ablations")
	zeta, err := experiments.AblateZeta(ctx, abl, experiments.AblationZetaDefault())
	if err != nil {
		return err
	}
	prio, err := experiments.AblatePriorities(ctx, abl)
	if err != nil {
		return err
	}
	section("Ablations")
	sb.WriteString(zeta.Format())
	sb.WriteString("\n")
	sb.WriteString(prio.Format())
	endSection()

	// Acceptance.
	acc := experiments.DefaultAcceptanceConfig()
	acc.Seed = sw.Seed
	acc.Run = sw.Run
	if *quick {
		acc.DAGs = 50
	}
	step("acceptance ratio")
	pts, err := experiments.AcceptanceRatio(ctx, acc, []float64{1.0, 2.0, 2.5, 3.0, 4.0})
	if err != nil {
		return err
	}
	section("§4.2 — analytical acceptance ratio")
	sb.WriteString(experiments.FormatAcceptance(pts))
	endSection()

	// Representative Fig. 8 trial, recorded: one proposed-system
	// real-time trial whose flight recording cmd/explain can dissect.
	if rec != nil {
		step("flight-recorded case-study trial")
		if err := experiments.RecordCaseTrial(sw.Seed, experiments.DefaultCaseStudyConfig(8).RT, rec); err != nil {
			return err
		}
	}

	// Cycle-accurate smoke: the SoC + monitor run that grounds the metrics
	// snapshot in real cache counters.
	step("cycle-accurate smoke (SoC + monitor)")
	smoke, err := monitor.Demo(soc.DefaultConfig(), metrics.Default, rec)
	if err != nil {
		return err
	}
	section("Cycle-accurate smoke — SoC hierarchy and SDU")
	sb.WriteString(smoke)
	endSection()

	// Embed the unified metrics snapshot in the report.
	snap, err := metrics.Default.Snapshot().JSON()
	if err != nil {
		return err
	}
	sb.WriteString("\n## Metrics snapshot\n\n```json\n")
	sb.Write(snap)
	sb.WriteString("\n```\n")

	if *out == "-" {
		fmt.Print(sb.String())
		return nil
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
