package l15

import (
	"math/rand"
	"reflect"
	"testing"

	"l15cache/internal/bitmap"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/mem"
)

// The tests in this file pin down the clock-skip contract of DESIGN.md §11:
// AdvanceTo must land on exactly the state a cycle-by-cycle Tick loop
// reaches — same counter, same flight KindSDU events (with their tick
// stamps), same ownership and same configuration latencies — because the
// kernel-equivalence tests byte-compare artifacts built from all of these.

// twins returns two caches, each recording into its own flight recorder.
func twins(t *testing.T, cfg Config) (tk, ev *L15) {
	t.Helper()
	var err error
	if tk, err = New(cfg, &fakeL2{latency: 20}); err != nil {
		t.Fatal(err)
	}
	if ev, err = New(cfg, &fakeL2{latency: 20}); err != nil {
		t.Fatal(err)
	}
	tk.FlightRecord(flight.New(), 0)
	ev.FlightRecord(flight.New(), 0)
	return tk, ev
}

// advanceTicked is the legacy kernel: one Tick per cycle, no skipping.
func advanceTicked(l *L15, target uint64) {
	for l.Ticks() < target {
		l.Tick()
	}
}

func compareTwins(t *testing.T, tk, ev *L15) {
	t.Helper()
	for _, l := range []*L15{tk, ev} {
		// The cached idle bit must match a fresh scan.
		cached := l.sduIdle()
		if l.updateIdle(); l.sduIdle() != cached {
			t.Fatalf("stale idle bit at tick %d: cached %t, scan %t", l.Ticks(), cached, l.sduIdle())
		}
	}
	if tk.Ticks() != ev.Ticks() {
		t.Fatalf("ticks diverged: ticked %d, events %d", tk.Ticks(), ev.Ticks())
	}
	if a, b := tk.frec.Events(), ev.frec.Events(); !reflect.DeepEqual(a, b) {
		t.Fatalf("config events diverged at tick %d:\nticked %+v\nevents %+v", tk.Ticks(), a, b)
	}
	for core := 0; core < tk.Config().Cores; core++ {
		owT, _ := tk.Supply(core)
		owE, _ := ev.Supply(core)
		if owT != owE {
			t.Fatalf("core %d ownership diverged: %v vs %v", core, owT, owE)
		}
		gvT, _ := tk.GVGet(core)
		gvE, _ := ev.GVGet(core)
		if gvT != gvE {
			t.Fatalf("core %d GV diverged: %v vs %v", core, gvT, gvE)
		}
		if tk.Pending(core) != ev.Pending(core) {
			t.Fatalf("core %d pending diverged", core)
		}
		if tk.ConfigLatency(core) != ev.ConfigLatency(core) {
			t.Fatalf("core %d config latency diverged: %d vs %d",
				core, tk.ConfigLatency(core), ev.ConfigLatency(core))
		}
	}
}

// Simultaneous demands from every core must be served in the same
// deterministic round-robin order under both kernels: the tie-break comes
// from the tick counter, which AdvanceTo preserves exactly.
func TestSkipMatchesTickSimultaneousDemands(t *testing.T) {
	tk, ev := twins(t, DefaultConfig())
	for _, l := range []*L15{tk, ev} {
		for core, n := range []int{5, 4, 3, 2} {
			if err := l.Demand(core, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	advanceTicked(tk, 40)
	ev.AdvanceTo(40)
	compareTwins(t, tk, ev)
	if n := ev.frec.Len(); n != 5+4+3+2 || ev.configEvents != uint64(n) {
		t.Fatalf("%d config events (counted %d), want 14", n, ev.configEvents)
	}

	// Determinism: a fresh instance fed the same script reproduces the
	// exact event list.
	_, again := twins(t, DefaultConfig())
	for core, n := range []int{5, 4, 3, 2} {
		if err := again.Demand(core, n); err != nil {
			t.Fatal(err)
		}
	}
	again.AdvanceTo(40)
	if !reflect.DeepEqual(again.frec.Events(), ev.frec.Events()) {
		t.Fatal("re-run produced a different event order")
	}
}

func TestAdvanceToZeroLength(t *testing.T) {
	l, _ := newL15(t)
	if err := l.Demand(0, 3); err != nil {
		t.Fatal(err)
	}
	l.AdvanceTo(2)
	before := l.Ticks()
	events := l.configEvents
	l.AdvanceTo(before) // zero-length advance
	l.AdvanceTo(1)      // target in the past
	if l.Ticks() != before || l.configEvents != events {
		t.Fatalf("zero-length advance changed state: ticks %d -> %d, events %d -> %d",
			before, l.Ticks(), events, l.configEvents)
	}
}

// NextWakeup must report Never exactly when ticking is a no-op, and the
// next cycle otherwise — the contract the SoC's clock skip relies on.
func TestNextWakeupProtocol(t *testing.T) {
	l, _ := newL15(t)
	if w := l.NextWakeup(); w != kernel.Never {
		t.Fatalf("fresh SDU wakeup = %d, want Never", w)
	}
	if err := l.Demand(0, 3); err != nil {
		t.Fatal(err)
	}
	if w := l.NextWakeup(); w != l.Ticks()+1 {
		t.Fatalf("pending demand wakeup = %d, want %d", w, l.Ticks()+1)
	}
	l.AdvanceTo(10)
	if l.Ticks() != 10 {
		t.Fatalf("AdvanceTo(10) landed on %d", l.Ticks())
	}
	if l.Pending(0) {
		t.Fatal("demand of 3 unsatisfied after 10 cycles")
	}
	if w := l.NextWakeup(); w != kernel.Never {
		t.Fatalf("settled SDU wakeup = %d, want Never", w)
	}
	// A shrink re-arms the Walloc: revocations are work too.
	if err := l.Demand(0, 1); err != nil {
		t.Fatal(err)
	}
	if w := l.NextWakeup(); w != l.Ticks()+1 {
		t.Fatalf("shrink wakeup = %d, want %d", w, l.Ticks()+1)
	}
	// Once the revocations are done the SDU is idle again.
	l.AdvanceTo(20)
	if w := l.NextWakeup(); l.Pending(0) || w != kernel.Never {
		t.Fatalf("shrunk SDU wakeup = %d (pending %t), want Never", w, l.Pending(0))
	}
}

// A demand issued on a cycle the events kernel reached by skipping (not
// ticking) must behave exactly as in the ticked twin: the epoch boundary
// lands on the same counter value, so the latency accounting agrees.
func TestDemandOnSkippedCycle(t *testing.T) {
	tk, ev := twins(t, DefaultConfig())
	for _, l := range []*L15{tk, ev} {
		if err := l.Demand(1, 4); err != nil {
			t.Fatal(err)
		}
	}
	advanceTicked(tk, 7)
	ev.AdvanceTo(7)

	// Long idle stretch: ticked grinds through it, events jumps it.
	advanceTicked(tk, 1000)
	ev.AdvanceTo(1000)
	compareTwins(t, tk, ev)

	// Reconfigure exactly at the skipped-to boundary.
	for _, l := range []*L15{tk, ev} {
		if err := l.Demand(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := l.Demand(2, 6); err != nil {
			t.Fatal(err)
		}
	}
	advanceTicked(tk, 1016)
	ev.AdvanceTo(1016)
	compareTwins(t, tk, ev)
	if lat := ev.ConfigLatency(1); lat == 0 || lat > 16 {
		t.Fatalf("core 1 config latency = %d after boundary demand", lat)
	}
}

// Zero-latency hits: with HitLat = 0 a load hit completes in the same
// cycle it issues. The SDU clock must not move on accesses, so skipping
// across them is trivially safe.
func TestZeroLatencyHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HitLat = 0
	cfg.GlobalLat = 0
	l, err := New(cfg, &fakeL2{latency: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Demand(0, 2); err != nil {
		t.Fatal(err)
	}
	l.AdvanceTo(4)
	before := l.Ticks()

	if _, err := l.Load(0, 0x100, 0x100); err != nil { // cold miss
		t.Fatal(err)
	}
	res, err := l.Load(0, 0x100, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Latency != 0 {
		t.Fatalf("warm load = %+v, want zero-latency hit", res)
	}
	if l.Ticks() != before {
		t.Fatalf("accesses moved the SDU clock %d -> %d", before, l.Ticks())
	}
	if w := l.NextWakeup(); w != kernel.Never {
		t.Fatalf("wakeup after zero-latency hits = %d, want Never", w)
	}
}

// Randomized equivalence: a seeded random script of control-register
// writes, accesses and clock advances drives both kernels; every advance
// must leave the twins in identical externally visible state.
func TestQuickTickVsSkipEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		tk, ev := twins(t, DefaultConfig())
		cores := tk.Config().Cores
		ways := tk.Config().Ways
		target := uint64(0)
		for step := 0; step < 200; step++ {
			core := r.Intn(cores)
			switch r.Intn(5) {
			case 0:
				n := r.Intn(ways + 1)
				for _, l := range []*L15{tk, ev} {
					if err := l.Demand(core, n); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				gv := bitmap.Bitmap(r.Uint64())
				for _, l := range []*L15{tk, ev} {
					if err := l.GVSet(core, gv); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				tid := uint16(r.Intn(3))
				for _, l := range []*L15{tk, ev} {
					if err := l.SetTID(core, tid); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				va := uint32(r.Intn(1 << 14))
				write := r.Intn(2) == 0
				var resT, resE AccessResult
				var errT, errE error
				if write {
					resT, errT = tk.Store(core, va, mem.PhysAddr(va))
					resE, errE = ev.Store(core, va, mem.PhysAddr(va))
				} else {
					resT, errT = tk.Load(core, va, mem.PhysAddr(va))
					resE, errE = ev.Load(core, va, mem.PhysAddr(va))
				}
				if errT != nil || errE != nil {
					t.Fatal(errT, errE)
				}
				if resT != resE {
					t.Fatalf("seed %d step %d: access diverged: %+v vs %+v",
						seed, step, resT, resE)
				}
			default:
				target += uint64(r.Intn(8))
				advanceTicked(tk, target)
				ev.AdvanceTo(target)
				compareTwins(t, tk, ev)
			}
		}
		advanceTicked(tk, target+64)
		ev.AdvanceTo(target + 64)
		compareTwins(t, tk, ev)
		if !reflect.DeepEqual(tk.Stats, ev.Stats) {
			t.Fatalf("seed %d: access stats diverged:\n%+v\n%+v", seed, tk.Stats, ev.Stats)
		}
	}
}
