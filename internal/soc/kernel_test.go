package soc

import (
	"reflect"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/kernel"
)

// recordedRun is one kernel's SoC and the flight events its L1.5s recorded.
type recordedRun struct {
	*SoC
	events []flight.Event
}

// runUnderKernel builds a SoC with the given kernel mode, runs src on core
// 0 (others halted) and settles the SDUs, mirroring runProgram.
func runUnderKernel(t *testing.T, mode kernel.Mode, src string) recordedRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Kernel = mode
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	s.FlightRecord(rec)
	if _, err := s.LoadProgram(0x1000, src); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPageTable(0, s.IdentityPageTable(1)); err != nil {
		t.Fatal(err)
	}
	s.StartCore(0, 0x1000, 0x8000)
	for i := 1; i < len(s.Cores); i++ {
		s.Cores[i].Halted = true
	}
	if _, err := s.Run(100000, nil); err != nil {
		t.Fatal(err)
	}
	s.SettleSDU(64)
	return recordedRun{s, rec.Events()}
}

// compareSoCs checks everything the flight recorder and metrics snapshots
// are derived from: per-core clocks and registers, the SDU tick counters,
// and the full tick-stamped configuration event streams.
func compareSoCs(t *testing.T, tk, ev recordedRun) {
	t.Helper()
	for i := range tk.Cores {
		if tk.Cores[i].Cycles != ev.Cores[i].Cycles {
			t.Errorf("core %d cycles: ticked %d, events %d",
				i, tk.Cores[i].Cycles, ev.Cores[i].Cycles)
		}
	}
	if tk.Cores[0].Regs != ev.Cores[0].Regs {
		t.Error("core 0 register files diverged")
	}
	for i := range tk.Clusters {
		a, b := tk.Clusters[i].L15, ev.Clusters[i].L15
		if a.Ticks() != b.Ticks() {
			t.Errorf("cluster %d SDU ticks: ticked %d, events %d", i, a.Ticks(), b.Ticks())
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("cluster %d L1.5 stats diverged:\n%+v\n%+v", i, a.Stats, b.Stats)
		}
	}
	if !reflect.DeepEqual(tk.events, ev.events) {
		t.Errorf("config events diverged:\nticked %+v\nevents %+v", tk.events, ev.events)
	}
}

// The SDU-heavy path: demand, poll supply, publish with gv_set. The events
// kernel skips the idle SDU stretches between the Walloc grants; every
// tick-stamped event must still match the ticked run.
func TestKernelsAgreeOnDemandProgram(t *testing.T) {
	src := `
		li a0, 4
		demand a0
	wait:
		supply a1
		beqz a1, wait
		gv_set a1
		li a0, 1
		demand a0
		nop
		nop
		ebreak
	`
	tk := runUnderKernel(t, kernel.Ticked, src)
	ev := runUnderKernel(t, kernel.Events, src)
	compareSoCs(t, tk, ev)
	if len(ev.events) == 0 {
		t.Fatal("program produced no SDU events; test is vacuous")
	}
}

// The no-SDU path: a pure cache-hit loop never wakes the Walloc, so the
// events kernel skips every SDU cycle of the run. The clocks must still
// settle to identical values.
func TestKernelsAgreeOnPureHitLoop(t *testing.T) {
	src := `
		li s0, 0x4000
		li t0, 0
		li t1, 2048
	loop:
		add t2, s0, t0
		lw t3, 0(t2)
		addi t0, t0, 64
		bne t0, t1, loop
		ebreak
	`
	tk := runUnderKernel(t, kernel.Ticked, src)
	ev := runUnderKernel(t, kernel.Events, src)
	compareSoCs(t, tk, ev)
	if len(ev.events) != 0 {
		t.Fatalf("hit loop produced SDU events: %+v", ev.events)
	}
	if ev.Clusters[0].L15.Ticks() == 0 {
		t.Fatal("SDU clock never advanced; skip path untested")
	}
}
