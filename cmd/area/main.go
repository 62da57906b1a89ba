// Command area regenerates the hardware-overhead analysis of §5.4: the
// analytical 28nm area of the 16-core SoC with the L1.5 Cache against the
// equal-capacity conventional (enlarged-L1) SoC, with the per-block gate
// breakdown of the L1.5 control microarchitecture. A failed run still
// writes the requested -metrics and -trace files, then exits 1.
//
// Usage:
//
//	area [-gates] [-metrics out.json] [-trace out.json] [-version]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"l15cache/internal/area"
	"l15cache/internal/cli"
	"l15cache/internal/telemetry"
)

func main() { runMain(area.CompareOverhead) }

// runMain is main over the overhead comparison compare: it parses the
// flags, prints the report and writes the requested artifact files on
// every exit path.
func runMain(compare func(area.TechParams) (area.OverheadReport, error)) {
	log.SetFlags(0)
	log.SetPrefix("area: ")

	gates := flag.Bool("gates", false, "also print the L1.5 gate-count breakdown")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()
	flushFiles, err := telemetry.OpenFiles(*metricsOut, *traceOut)
	if err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(report(compare, *gates), flushFiles()); err != nil {
		log.Fatal(err)
	}
}

// report prints compare's overhead comparison at 28nm and, with gates,
// the L1.5 gate-count breakdown.
func report(compare func(area.TechParams) (area.OverheadReport, error), gates bool) error {
	p := area.Synopsys28nm()
	r, err := compare(p)
	if err != nil {
		return err
	}
	fmt.Print(r.Format())
	if !gates {
		return nil
	}
	g := area.GateCounts(area.PhysicalL15(), p)
	fmt.Println("\nL1.5 control-logic gates (NAND2-equivalent):")
	fmt.Printf("  control registers: %8.0f\n", g.ControlRegisters)
	fmt.Printf("  mask logic:        %8.0f\n", g.MaskLogic)
	fmt.Printf("  line selectors:    %8.0f\n", g.LineSelectors)
	fmt.Printf("  data selectors:    %8.0f\n", g.DataSelectors)
	fmt.Printf("  protector:         %8.0f\n", g.Protector)
	fmt.Printf("  SDU:               %8.0f\n", g.SDU)
	fmt.Printf("  total:             %8.0f\n", g.Total())
	return nil
}
