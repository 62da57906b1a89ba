package soc

import (
	"fmt"
	"strings"
	"testing"

	"l15cache/internal/cpu"
	"l15cache/internal/kernel"
)

// The tests in this file pin down park-cycle replay (park.go) the way
// replay_test.go pins down countdown replay: every run is made under both
// kernels and must leave identical full state.

// parkProg is a park cycle: a delay of n countdown iterations, then an
// idle poll (a7 = 2) the handler answers by sending the core back.
func parkProg(n int) string {
	return fmt.Sprintf("park:\nli t6, %d\nd:\naddi t6, t6, -1\nbnez t6, d\nli a7, 2\necall\nj park\n", n)
}

// demander keeps cluster 1's SDU granting and shrinking ways while the
// parked cores idle, so the SDU targets replay skips are observable.
const demander = `
	li s1, 6
again:
	li a0, 6
	demand a0
wait:
	supply a1
	beqz a1, wait
	li t0, 90
spin:
	addi t0, t0, -1
	bnez t0, spin
	li a0, 1
	demand a0
	li t0, 70
spin2:
	addi t0, t0, -1
	bnez t0, spin2
	addi s1, s1, -1
	bnez s1, again
	ebreak
`

// parkHandler is a minimal kernel for parkProg: a poll before until is
// quiet (its answer also sets t6, which the pass overwrites), the first
// poll at or past until ends the run, and any other ecall is answered
// (after other, if not nil) without Quiet.
func parkHandler(s *SoC, until uint64, other func(*SoC, *cpu.Core)) func(*cpu.Core, cpu.Trap) bool {
	return func(c *cpu.Core, _ cpu.Trap) bool {
		if c.Regs[17] != 2 {
			if other != nil {
				other(s, c)
			}
			return true
		}
		if c.Cycles >= until {
			return false
		}
		c.PC, c.Regs[31] = base(c.ID), 5
		s.Quiet(c.ID, until)
		return true
	}
}

// passStep returns, for a core replaying a park cycle under the events
// kernel, the step of its pass the current step of the run falls in, and
// the pass length.
func passStep(s *SoC, i int) (k, n int, ok bool) {
	r := &s.loops[i]
	if s.Cfg.Kernel != kernel.Events || !r.on || !r.park {
		return 0, 0, false
	}
	n = len(r.body)
	return int(r.done(i, s.stepT, s.stepCore) % uint64(n)), n, true
}

// A handler call that is not quiet settles every parked core; sweeping
// its time over more than one pass settles core 1 before every step of
// its pass. A store into a parked core's delay word settles that core
// alone, and StartCore inside the handler settles its core first.
func TestParkReplaySettlesAtEveryStep(t *testing.T) {
	liWord := fmt.Sprintf("li t1, %d\nli t2, %d\nsw t1, 0(t2)\n", int32(word(t, "li t6, 3")), base(3))
	cases := []struct {
		name          string
		trigger       string
		core          int
		restart       bool
		from, to, inc int // the nops before the trigger
		delay3        int // core 3's park delay
	}{
		{"ecall", "li a7, 1\necall\n", 1, false, 150, 176, 1, 6},
		{"ecall+StartCore", "li a7, 1\necall\n", 1, true, 150, 176, 1, 6},
		// Some stores land while core 3 measures its (longer) pass.
		{"store", liWord, 3, false, 0, 180, 3, 40},
	}
	for _, tc := range cases {
		covered := map[int]bool{}
		n := 0
		for shift := tc.from; shift < tc.to; shift += tc.inc {
			core0 := strings.Repeat("nop\n", shift) + tc.trigger + "ebreak\n"
			other := func(s *SoC, c *cpu.Core) {
				if k, l, ok := passStep(s, tc.core); ok {
					covered[k], n = true, l
				}
				if tc.restart {
					s.StartCore(2, base(2), 0x9000)
				}
			}
			s := twinRun{
				cfg: DefaultConfig(),
				setup: func(t *testing.T, s *SoC) {
					loadAll(t, s, []string{core0, parkProg(6), parkProg(6), parkProg(tc.delay3), demander})
				},
				max: 1 << 40,
				handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
					return parkHandler(s, 2000, other)
				},
			}.run(t, fmt.Sprintf("%s shift=%d", tc.name, shift))
			if s.replayed == 0 {
				t.Fatalf("%s shift=%d: nothing replayed", tc.name, shift)
			}
		}
		if tc.name == "store" {
			continue // exactness only: the store is not observed in the handler
		}
		if n == 0 || len(covered) != n {
			t.Fatalf("%s: settled before %d of the pass's %d steps", tc.name, len(covered), n)
		}
	}
}

// The replay's exit is the first poll at or past until: sweeping until
// over more than one pass puts it just before, at and just after every
// poll of the parked cores, whose delays differ. The early horizons fall
// inside the measured pass, whose closing poll must then be real.
func TestParkReplayUntil(t *testing.T) {
	var untils []uint64
	for u := uint64(150); u < 260; u += 2 {
		untils = append(untils, u)
	}
	for u := uint64(1500); u < 1560; u++ {
		untils = append(untils, u)
	}
	for _, until := range untils {
		s := twinRun{
			cfg: DefaultConfig(),
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{"", parkProg(6), parkProg(9), parkProg(1), demander})
			},
			max: 1 << 40,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return parkHandler(s, until, nil)
			},
		}.run(t, fmt.Sprintf("until=%d", until))
		if s.replayed == 0 && until > 1000 {
			t.Fatalf("until=%d: nothing replayed", until)
		}
	}
}

// With no horizon the parked cores replay until maxInstrs freezes them,
// which lands on every step of their pass as the bound sweeps; frozen
// cores still hold the SDU clock back while the demander runs.
func TestParkReplayMaxInstrs(t *testing.T) {
	pcs := map[uint32]bool{}
	for max := uint64(400); max < 420; max++ {
		s := twinRun{
			cfg: DefaultConfig(),
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{"", parkProg(6), parkProg(6), "", demander})
			},
			max: max,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return parkHandler(s, kernel.Never, nil)
			},
		}.run(t, fmt.Sprintf("max=%d", max))
		if s.replayed == 0 || s.retired[1] != max {
			t.Fatalf("max=%d: replayed %d, core 1 retired %d", max, s.replayed, s.retired[1])
		}
		pcs[s.Cores[1].PC] = true
	}
	if len(pcs) < 5 {
		t.Fatalf("the bound froze core 1 at only %d PCs", len(pcs))
	}
}

// In a one-set L1I a pass whose words straddle two lines is not replayed:
// its fetches alternate the PLRU bits, so a core settled mid-pass, then
// restarted on a third line, would evict the wrong one.
func TestParkReplaySetAliasedPass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Bytes = cfg.L1Ways * cfg.L1LineBytes
	// The pass jumps over 13 nops to its delay, whose addi ends the
	// first line; the bnez, li and ecall open the next.
	straddle := "j p\n" + strings.Repeat("nop\n", 13) + "p:\nli t6, 6\nd:\naddi t6, t6, -1\nbnez t6, d\nli a7, 2\necall\n"
	back := fmt.Sprintf("li t1, %d\njr t1\n", base(1))
	for shift := 150; shift < 200; shift += 2 {
		core0 := strings.Repeat("nop\n", shift) + "li a7, 1\necall\nebreak\n"
		s := twinRun{
			cfg: cfg,
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{core0, straddle})
				if _, err := s.LoadProgram(0x3000, back); err != nil {
					t.Fatal(err)
				}
			},
			max: 1 << 40,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return parkHandler(s, 3000, func(s *SoC, _ *cpu.Core) {
					s.StartCore(1, 0x3000, 0x9000)
				})
			},
		}.run(t, fmt.Sprintf("shift=%d", shift))
		if s.replayed != 0 {
			t.Fatalf("shift=%d: replayed %d steps of a set-aliased pass", shift, s.replayed)
		}
	}
}

// A pass that loads, stores (to memory or the console) or operates the
// L1.5 is not replayed: those steps touch shared state.
func TestParkReplayPrivateOnly(t *testing.T) {
	for _, op := range []string{
		"lw t0, 0(sp)",
		"sw t0, 0(sp)",
		fmt.Sprintf("li t1, %d\nsb t0, 0(t1)", DefaultConfig().UARTAddr),
		"supply t0",
	} {
		pass := "nop\n" + op + "\nnop\nli a7, 2\necall\n"
		s := twinRun{
			cfg:   DefaultConfig(),
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{"", pass, "", pass}) },
			max:   1 << 40,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return parkHandler(s, 3000, nil)
			},
		}.run(t, op)
		if s.replayed != 0 {
			t.Fatalf("%q: replayed %d steps", op, s.replayed)
		}
	}
}
