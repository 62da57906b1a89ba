// Command area regenerates the hardware-overhead analysis of §5.4: the
// analytical 28nm area of the 16-core SoC with the L1.5 Cache against the
// equal-capacity conventional (enlarged-L1) SoC, with the per-block gate
// breakdown of the L1.5 control microarchitecture.
//
// Usage:
//
//	area [-gates] [-metrics out.json] [-trace out.json] [-version]
package main

import (
	"flag"
	"fmt"
	"log"

	"l15cache/internal/area"
	"l15cache/internal/cli"
	"l15cache/internal/telemetry"
)

func main() {
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

	p := area.Synopsys28nm()
	r, err := area.CompareOverhead(p)
	if err != nil {
		fmt.Println("area:", err)
		return
	}
	fmt.Print(r.Format())

	if *gates {
		g := area.GateCounts(area.PhysicalL15(), p)
		fmt.Println("\nL1.5 control-logic gates (NAND2-equivalent):")
		fmt.Printf("  control registers: %8.0f\n", g.ControlRegisters)
		fmt.Printf("  mask logic:        %8.0f\n", g.MaskLogic)
		fmt.Printf("  line selectors:    %8.0f\n", g.LineSelectors)
		fmt.Printf("  data selectors:    %8.0f\n", g.DataSelectors)
		fmt.Printf("  protector:         %8.0f\n", g.Protector)
		fmt.Printf("  SDU:               %8.0f\n", g.SDU)
		fmt.Printf("  total:             %8.0f\n", g.Total())
	}

	if err := flushFiles(); err != nil {
		log.Fatal(err)
	}
}
