// Command l15sim runs RV32I + L1.5-extension assembly programs on the
// cycle-approximate SoC simulator. Each -program flag loads one source file
// onto the next core (all cores share one identity-mapped address space by
// default); without any program a built-in producer/consumer demo of the
// §4.3 programming model runs on two cores of cluster 0.
//
// Usage:
//
//	l15sim [-program file.s]... [-max N] [-stats] [-metrics out.json]
//	       [-trace out.json] [-flight out.jsonl] [-telemetry out.jsonl]
//	       [-http addr] [-pprof addr]
//	       [-cpuprofile out.pb.gz] [-memprofile out.pb.gz] [-version]
//
// -metrics serialises the metrics registry (L1/L1.5/L2/TLB counters, SDU
// latency histograms) as JSON; -trace writes a Chrome trace_event file for
// chrome://tracing; -flight writes a flight recording of every Walloc way
// reassignment and gv_set (dissect it with cmd/explain); -telemetry
// writes the wall-clock sampler's time series as JSONL. -http serves the
// live-inspection endpoint (/metrics Prometheus exposition or JSON,
// /metrics/history, /metrics/stream, /events SSE stream of flight events,
// /dashboard, /healthz) during and after the run — the process then stays
// up until interrupted. An interrupt (Ctrl-C) at any point still flushes
// the requested artifact files and drains live SSE clients through a
// graceful server shutdown before exiting. -pprof serves net/http/pprof
// on the given address for live profiling, and -cpuprofile/-memprofile
// write offline profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"l15cache/internal/cli"
	"l15cache/internal/flight"
	"l15cache/internal/isa"
	"l15cache/internal/metrics"
	"l15cache/internal/soc"
)

type programList []string

func (p *programList) String() string { return fmt.Sprint(*p) }
func (p *programList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("l15sim: ")

	var programs programList
	flag.Var(&programs, "program", "assembly source file (repeatable, one per core)")
	maxInstrs := flag.Uint64("max", 10_000_000, "instruction budget per core")
	stats := flag.Bool("stats", false, "print cache and pipeline statistics")
	width := flag.Int("width", 1, "core issue width (2 enables the §3.3 dual-issue front end)")
	list := flag.Bool("list", false, "print the disassembly of each program before running")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	flightOut := flag.String("flight", "", "write a flight recording (.jsonl or .bin) to this file")
	httpAddr := flag.String("http", "", "serve /metrics, /events (SSE) and /healthz on this address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	showVersion := cli.VersionFlag()
	startTelemetry := cli.TelemetryFlag()
	flag.Parse()
	showVersion()
	flushTelemetry := startTelemetry()

	var rec *flight.Recorder
	if *flightOut != "" || *httpAddr != "" {
		rec = flight.New()
	}
	var srv *flight.Server
	if *httpAddr != "" {
		srv = &flight.Server{Recorder: rec}
	}
	// flush writes every requested artifact; it runs on the normal exit
	// path and again from the interrupt handler, so a Ctrl-C mid-run
	// still leaves complete (if shorter) files behind.
	flush := func() error {
		if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
			return err
		}
		if err := flushTelemetry(); err != nil {
			return err
		}
		if *flightOut != "" {
			return flight.WriteFile(*flightOut, rec.Snapshot())
		}
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		log.Print("interrupted; flushing outputs")
		if err := flush(); err != nil {
			log.Print(err)
		}
		if srv != nil {
			// Drain SSE clients and finish in-flight requests before the
			// process goes away.
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				log.Print(err)
			}
			cancel()
		}
		os.Exit(130)
	}()
	if srv != nil {
		go func() {
			err := srv.ListenAndServe(*httpAddr, func(addr string) {
				log.Printf("live inspection on http://%s/ (/metrics, /dashboard, /events, /healthz)", addr)
			})
			if err != nil {
				log.Printf("http server: %v", err)
			}
		}()
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	sources := []string{soc.DemoProducer, soc.DemoConsumer}
	names := []string{"demo-producer", "demo-consumer"}
	if len(programs) > 0 {
		sources = nil
		names = nil
		for _, path := range programs {
			src, err := os.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			sources = append(sources, string(src))
			names = append(names, path)
		}
	}

	cfg := soc.DefaultConfig()
	if *width > 1 {
		cfg.IssueWidth = *width
		cfg.MemPorts = 2
	}
	s, err := soc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s.Instrument(metrics.Default, metrics.Trace)
	s.FlightRecord(rec)
	if len(sources) > len(s.Cores) {
		log.Fatalf("%d programs for %d cores", len(sources), len(s.Cores))
	}
	pt := s.IdentityPageTable(1)
	base := uint32(0x1000)
	for i, src := range sources {
		n, err := s.LoadProgram(base, src)
		if err != nil {
			log.Fatalf("%s: %v", names[i], err)
		}
		if err := s.SetPageTable(i, pt); err != nil {
			log.Fatal(err)
		}
		s.StartCore(i, base, 0x8000+uint32(i)*0x1000)
		fmt.Printf("core %d: %s (%d words at %#x)\n", i, names[i], n, base)
		if *list {
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

	trap, err := s.Run(*maxInstrs, nil)
	if err != nil {
		log.Fatal(err)
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
	if *stats {
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

	if err := flush(); err != nil {
		log.Fatal(err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *httpAddr != "" {
		log.Print("run finished; still serving -http (Ctrl-C to exit)")
		// Either receiver of sig may win; all artifacts are already
		// flushed, so both paths are clean exits.
		<-sig
	}
}
