// Command l15sim runs RV32I + L1.5-extension assembly programs on the
// cycle-approximate SoC simulator. Each -program flag loads one source file
// onto the next core (all cores share one identity-mapped address space by
// default); without any program a built-in producer/consumer demo of the
// §4.3 programming model runs on two cores of cluster 0.
//
// Usage:
//
//	l15sim [-program file.s]... [-max N] [-stats] [-metrics out.json]
//	       [-trace out.json] [-flight out.jsonl]
//	       [-cpuprofile out.pb.gz] [-memprofile out.pb.gz] [-version]
//
// -metrics serialises the metrics registry (L1/L1.5/L2/TLB counters, SDU
// latency histograms) as JSON; -trace writes a Chrome trace_event file for
// chrome://tracing, with the wall-clock sampler's heap, GC and latency
// series as counter tracks; -flight writes a JSONL flight recording of
// every Walloc way reassignment and gv_set (dissect it with cmd/explain).
// A failed run still writes the requested artifact files, then exits 1;
// an interrupt (Ctrl-C) at any point flushes them too before exiting.
// -cpuprofile/-memprofile write offline profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"l15cache/internal/cli"
	"l15cache/internal/flight"
	"l15cache/internal/isa"
	"l15cache/internal/metrics"
	"l15cache/internal/soc"
	"l15cache/internal/telemetry"
)

type programList []string

func (p *programList) String() string { return fmt.Sprint(*p) }
func (p *programList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

// options are the flags that shape the simulated run.
type options struct {
	programs   programList
	maxInstrs  uint64
	stats      bool
	width      int
	list       bool
	cpuProfile string
	memProfile string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("l15sim: ")

	var o options
	flag.Var(&o.programs, "program", "assembly source file (repeatable, one per core)")
	flag.Uint64Var(&o.maxInstrs, "max", 10_000_000, "instruction budget per core")
	flag.BoolVar(&o.stats, "stats", false, "print cache and pipeline statistics")
	flag.IntVar(&o.width, "width", 1, "core issue width (2 enables the §3.3 dual-issue front end)")
	flag.BoolVar(&o.list, "list", false, "print the disassembly of each program before running")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	flightOut := flag.String("flight", "", "write a JSONL flight recording to this file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()
	flushFiles, err := telemetry.OpenFiles(*metricsOut, *traceOut)
	if err != nil {
		log.Fatal(err)
	}

	var rec *flight.Recorder
	if *flightOut != "" {
		rec = flight.New()
	}
	// flush writes every requested artifact; it runs once the run ends,
	// failed or not, and from the interrupt handler, so a Ctrl-C mid-run
	// still leaves complete (if shorter) files behind.
	flush := func() error {
		err := flushFiles()
		if *flightOut != "" {
			err = errors.Join(err, flight.WriteFile(*flightOut, rec.Snapshot()))
		}
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		log.Print("interrupted; flushing outputs")
		if err := flush(); err != nil {
			log.Print(err)
		}
		os.Exit(130)
	}()

	if err := errors.Join(run(o, rec), flush()); err != nil {
		log.Fatal(err)
	}
}

// run loads the programs onto a fresh SoC instrumented with
// metrics.Default and rec, runs it and prints the outcome.
func run(o options, rec *flight.Recorder) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	sources := []string{soc.DemoProducer, soc.DemoConsumer}
	names := []string{"demo-producer", "demo-consumer"}
	if len(o.programs) > 0 {
		sources = nil
		names = nil
		for _, path := range o.programs {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources = append(sources, string(src))
			names = append(names, path)
		}
	}

	cfg := soc.DefaultConfig()
	if o.width > 1 {
		cfg.IssueWidth = o.width
		cfg.MemPorts = 2
	}
	s, err := soc.New(cfg)
	if err != nil {
		return err
	}
	s.Instrument(metrics.Default, rec)
	if len(sources) > len(s.Cores) {
		return fmt.Errorf("%d programs for %d cores", len(sources), len(s.Cores))
	}
	pt := s.IdentityPageTable(1)
	base := uint32(0x1000)
	for i, src := range sources {
		n, err := s.LoadProgram(base, src)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		if err := s.SetPageTable(i, pt); err != nil {
			return err
		}
		s.StartCore(i, base, 0x8000+uint32(i)*0x1000)
		fmt.Printf("core %d: %s (%d words at %#x)\n", i, names[i], n, base)
		if o.list {
			words, err := isa.Assemble(src, base)
			if err == nil {
				fmt.Print(isa.Disassemble(words, base))
			}
		}
		base += uint32(4*n) + 0x100
	}
	for i := len(sources); i < len(s.Cores); i++ {
		s.Cores[i].Halted = true
	}

	trap, err := s.Run(o.maxInstrs, nil)
	if err != nil {
		return err
	}
	if trap.Kind != 0 {
		fmt.Printf("stopped by trap: %v at pc %#x (%s)\n", trap.Kind, trap.PC, trap.Info)
	}
	if len(s.UART) > 0 {
		fmt.Printf("console (%#x):\n%s", cfg.UARTAddr, string(s.UART))
		if s.UART[len(s.UART)-1] != '\n' {
			fmt.Println()
		}
	}
	for i := range sources {
		c := s.Cores[i]
		fmt.Printf("core %d: halted=%v cycles=%d instret=%d a0=%d (%#x)\n",
			i, c.Halted, c.Cycles, c.Stats.Instret, c.Regs[10], c.Regs[10])
	}
	if o.stats {
		for i := range sources {
			c := s.Cores[i]
			fmt.Printf("core %d: load-use stalls %d, branch flushes %d, fetch stall %d, mem stall %d, l15 ops %d, dual groups %d\n",
				i, c.Stats.LoadUseStalls, c.Stats.BranchFlushes,
				c.Stats.FetchStall, c.Stats.MemStall, c.Stats.L15Ops, c.Stats.DualIssued)
		}
		for _, cl := range s.Clusters {
			for core, st := range cl.L15.Stats {
				if st.Hits+st.Misses == 0 {
					continue
				}
				fmt.Printf("cluster %d core %d: L1.5 hits %d (global %d), misses %d\n",
					cl.ID, core, st.Hits, st.GlobalHits, st.Misses)
			}
		}
		fmt.Printf("L2: hits %d, misses %d\n", s.L2.Stats.Hits, s.L2.Stats.Misses)
	}

	if o.memProfile == "" {
		return nil
	}
	f, err := os.Create(o.memProfile)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
