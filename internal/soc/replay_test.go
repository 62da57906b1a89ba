package soc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"l15cache/internal/cpu"
	"l15cache/internal/flight"
	"l15cache/internal/isa"
	"l15cache/internal/kernel"
	"l15cache/internal/l15"
	"l15cache/internal/metrics"
	"l15cache/internal/tlb"
)

// The tests in this file pin down countdown-loop replay (replay.go): a run
// under the events kernel, which replays loops, must leave exactly the
// state of the same run under the ticked kernel, which steps every
// instruction.

// socState is everything a run leaves observable.
type socState struct {
	PC      []uint32
	Regs    [][32]uint32
	Cycles  []uint64
	Halted  []bool
	Stats   []cpu.Stats
	Ticks   []uint64
	Flight  []flight.Event
	L15     [][]l15.CoreStats
	Reads   uint64
	Writes  uint64
	UART    string
	Metrics metrics.Snapshot
}

func stateOf(s *SoC, rec *flight.Recorder) socState {
	st := socState{Flight: rec.Events()}
	for _, c := range s.Cores {
		st.PC = append(st.PC, c.PC)
		st.Regs = append(st.Regs, c.Regs)
		st.Cycles = append(st.Cycles, c.Cycles)
		st.Halted = append(st.Halted, c.Halted)
		st.Stats = append(st.Stats, c.Stats)
	}
	for _, cl := range s.Clusters {
		st.Ticks = append(st.Ticks, cl.L15.Ticks())
		st.L15 = append(st.L15, append([]l15.CoreStats(nil), cl.L15.Stats...))
	}
	st.Reads, st.Writes, st.UART = s.Mem.Reads, s.Mem.Writes, string(s.UART)
	reg := metrics.NewRegistry()
	s.Instrument(reg, nil)
	st.Metrics = reg.Snapshot()
	return st
}

// diffStates reports the first fields in which two states differ.
func diffStates(t *testing.T, what string, tk, ev socState) {
	t.Helper()
	a, b := reflect.ValueOf(tk), reflect.ValueOf(ev)
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			t.Errorf("%s: %s diverged:\nticked %+v\nevents %+v", what,
				a.Type().Field(i).Name, a.Field(i).Interface(), b.Field(i).Interface())
		}
	}
}

// twinRun describes one run: cfg (its Kernel is overridden), setup to
// load programs and start cores, the instruction bound, and a handler
// factory (nil for no handler).
type twinRun struct {
	cfg     Config
	setup   func(t *testing.T, s *SoC)
	max     uint64
	handler func(s *SoC) func(*cpu.Core, cpu.Trap) bool
}

// run executes the run under both kernels, requires identical full state
// and returns the events-kernel SoC.
func (r twinRun) run(t *testing.T, what string) *SoC {
	t.Helper()
	var socs [2]*SoC
	var recs [2]*flight.Recorder
	var results [2]string
	for k, mode := range []kernel.Mode{kernel.Ticked, kernel.Events} {
		cfg := r.cfg
		cfg.Kernel = mode
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs[k] = flight.New()
		s.Instrument(nil, recs[k])
		r.setup(t, s)
		var h func(*cpu.Core, cpu.Trap) bool
		if r.handler != nil {
			h = r.handler(s)
		}
		trap, err := s.Run(r.max, h)
		results[k] = fmt.Sprintf("%+v %v", trap, err)
		socs[k] = s
	}
	if results[0] != results[1] {
		t.Errorf("%s: Run results diverged: ticked %s, events %s", what, results[0], results[1])
	}
	if socs[0].replayed != 0 {
		t.Errorf("%s: the ticked kernel replayed %d steps", what, socs[0].replayed)
	}
	diffStates(t, what, stateOf(socs[0], recs[0]), stateOf(socs[1], recs[1]))
	return socs[1]
}

// base is where core i's program lives.
func base(i int) uint32 { return 0x1000 + 0x400*uint32(i) }

// load assembles src at core i's base, binds the identity page table
// (TID 1) and starts the core; cores never loaded stay halted.
func load(t *testing.T, s *SoC, i int, src string) {
	t.Helper()
	if _, err := s.LoadProgram(base(i), src); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPageTable(i, s.IdentityPageTable(1)); err != nil {
		t.Fatal(err)
	}
	s.StartCore(i, base(i), 0x80000+0x1000*uint32(i))
}

// loadAll loads progs[i] on core i and halts every other core.
func loadAll(t *testing.T, s *SoC, progs []string) {
	t.Helper()
	for i := range s.Cores {
		if i < len(progs) && progs[i] != "" {
			load(t, s, i, progs[i])
		} else {
			s.Cores[i].Halted = true
		}
	}
}

// countdownSrc is a program running the countdown loop n times from its
// second word, then halting.
func countdownSrc(n int) string {
	return fmt.Sprintf("li t0, %d\nloop:\naddi t0, t0, -1\nbnez t0, loop\nebreak\n", n)
}

func word(t *testing.T, src string) uint32 {
	t.Helper()
	w, err := isa.Assemble(src, 0)
	if err != nil || len(w) != 1 {
		t.Fatalf("assemble %q: %v", src, err)
	}
	return w[0]
}

// Run returning (the handler halts core 0) must settle every core still
// inside a loop, whether it stands before an addi or between the addi and
// its bne.
func TestReplayRunReturnsMidLoop(t *testing.T) {
	parity := map[bool]bool{}
	for k := 0; k < 8; k++ {
		progs := []string{strings.Repeat("nop\n", 40+k) + "ecall\n"}
		for i := 1; i < 8; i++ {
			progs = append(progs, countdownSrc(1000+37*i))
		}
		s := twinRun{
			cfg:   DefaultConfig(),
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, progs) },
			max:   1 << 40,
			handler: func(*SoC) func(*cpu.Core, cpu.Trap) bool {
				return func(*cpu.Core, cpu.Trap) bool { return false }
			},
		}.run(t, fmt.Sprintf("k=%d", k))
		if s.replayed == 0 {
			t.Fatalf("k=%d: nothing replayed", k)
		}
		for i := 1; i < 8; i++ {
			parity[s.Cores[i].PC == base(i)+8] = true
		}
	}
	if !parity[true] || !parity[false] {
		t.Fatalf("settle points never split an iteration: %v", parity)
	}
}

// A store into a replaying loop's words ends the replay at the store:
// the core runs the new code from its next fetch on.
func TestReplayStoreIntoLoop(t *testing.T) {
	const delay = "li t3, 300\nd:\naddi t3, t3, -1\nbnez t3, d\n"
	p := base(1) + 4 // the addi of core 1's loop
	cases := []struct {
		name  string
		store string
	}{
		{"bne-to-ebreak", fmt.Sprintf("li t1, %d\nli t2, %d\nsw t1, 0(t2)\n", int32(word(t, "ebreak")), p+4)},
		{"addi-to-sub2", fmt.Sprintf("li t1, %d\nli t2, %d\nsw t1, 0(t2)\n", int32(word(t, "addi t0, t0, -2")), p)},
		{"byte-into-bne", fmt.Sprintf("li t1, 0x73\nli t2, %d\nsb t1, 0(t2)\n", p+4)},
		{"word-before-loop", fmt.Sprintf("li t1, 0\nli t2, %d\nsw t1, 0(t2)\n", p-4)},
	}
	for _, tc := range cases {
		s := twinRun{
			cfg: DefaultConfig(),
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{delay + tc.store + "ebreak\n", countdownSrc(4000), countdownSrc(3000)})
			},
			max: 1 << 40,
		}.run(t, tc.name)
		if s.replayed == 0 {
			t.Fatalf("%s: nothing replayed", tc.name)
		}
	}
}

// maxInstrs inside a loop: the loop is not replayed past the bound, and a
// core frozen by it still holds the SDU clock back while another core's
// demands are served.
func TestReplayMaxInstrsInsideLoop(t *testing.T) {
	demander := `
		li a0, 6
		demand a0
	wait:
		supply a1
		beqz a1, wait
		li t0, 200
	spin:
		addi t0, t0, -1
		bnez t0, spin
		li a0, 2
		demand a0
		li t0, 400
	spin2:
		addi t0, t0, -1
		bnez t0, spin2
		li a0, 9
		demand a0
		ebreak
	`
	for _, max := range []uint64{5, 150, 1001, 1002, 1003, 1500, 1999, 2000, 2001, 2003, 2004, 2005, 1 << 20} {
		twinRun{
			cfg: DefaultConfig(),
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{demander, countdownSrc(1000), "", countdownSrc(5000)})
			},
			max: max,
		}.run(t, fmt.Sprintf("max=%d", max))
	}
}

// The handler may re-point or restart a replaying core through
// SetPageTable and StartCore; the core is settled to the trapping step
// first.
func TestReplayHandlerRestartsReplayingCore(t *testing.T) {
	delay := func(l string) string { return fmt.Sprintf("li t3, 500\n%s:\naddi t3, t3, -1\nbnez t3, %s\n", l, l) }
	for _, shift := range []int{0, 1, 2, 3} {
		core0 := strings.Repeat("nop\n", shift) + delay("d1") + "ecall\n" + delay("d2") + "ecall\nebreak\n"
		s := twinRun{
			cfg: DefaultConfig(),
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{core0, countdownSrc(3000), countdownSrc(3000), "", countdownSrc(3000)})
				if _, err := s.LoadProgram(0x3000, countdownSrc(50)); err != nil {
					t.Fatal(err)
				}
			},
			max: 1 << 40,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				calls := 0
				return func(*cpu.Core, cpu.Trap) bool {
					calls++
					if err := s.SetPageTable(1, s.IdentityPageTable(2)); err != nil {
						t.Fatal(err)
					}
					s.StartCore(2, 0x3000, 0x9000)
					if calls == 2 {
						s.StartCore(3, 0x3000, 0x9000) // a halted core
						s.StartCore(4, 0x3000, 0x9000)
					}
					return true
				}
			},
		}.run(t, fmt.Sprintf("shift=%d", shift))
		if s.replayed == 0 {
			t.Fatalf("shift=%d: nothing replayed", shift)
		}
	}
}

// In a one-set L1I a loop whose two words straddle a line boundary is
// not replayed: its fetches alternate the PLRU bits, so a core settled
// between the addi and the bne, then restarted elsewhere, would evict the
// wrong line.
func TestReplaySetAliasedLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Bytes = cfg.L1Ways * cfg.L1LineBytes
	straddle := strings.Repeat("nop\n", 13) + countdownSrc(3000) // li is two words; addi ends the line
	back := fmt.Sprintf("li t1, %d\njr t1\n", base(1))
	for shift := 0; shift < 8; shift++ {
		core0 := strings.Repeat("nop\n", shift) + "li t3, 400\nd:\naddi t3, t3, -1\nbnez t3, d\necall\nebreak\n"
		twinRun{
			cfg: cfg,
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{core0, straddle})
				if _, err := s.LoadProgram(0x3000, back); err != nil {
					t.Fatal(err)
				}
			},
			max: 20000,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return func(*cpu.Core, cpu.Trap) bool {
					s.StartCore(1, 0x3000, 0x9000)
					return true
				}
			},
		}.run(t, fmt.Sprintf("shift=%d", shift))
	}
}

// A loop entered with a cold L1I and TLB replays once its first iteration
// has warmed them, with every fetch latency: an L1I hit costing more than one
// cycle makes each replayed step pay a fetch stall.
func TestReplayColdEntry(t *testing.T) {
	for _, lat := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.L1Lat = lat
		s := twinRun{
			cfg:   cfg,
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{countdownSrc(100)}) },
			max:   1 << 40,
		}.run(t, fmt.Sprintf("L1Lat=%d", lat))
		if s.replayed == 0 {
			t.Fatalf("L1Lat=%d: nothing replayed", lat)
		}
		if lat > 1 && s.Cores[0].Stats.FetchStall < 100 {
			t.Fatalf("L1Lat=%d: fetch stall %d", lat, s.Cores[0].Stats.FetchStall)
		}
	}
}

// With one iteration left at entry, only its addi is replayed.
func TestReplayOneIterationLeft(t *testing.T) {
	s := twinRun{
		cfg:   DefaultConfig(),
		setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{countdownSrc(2)}) },
		max:   1 << 40,
	}.run(t, "n=2")
	if s.replayed != 1 {
		t.Fatalf("replayed %d steps, want 1", s.replayed)
	}
}

// With dual issue configured nothing is replayed.
func TestReplayOffWithDualIssue(t *testing.T) {
	dual := DefaultConfig()
	dual.IssueWidth, dual.MemPorts = 2, 2
	wide := twinRun{
		cfg:   dual,
		setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{countdownSrc(500), countdownSrc(700)}) },
		max:   1 << 40,
	}.run(t, "dual issue")
	if wide.replayed != 0 {
		t.Fatalf("replayed %d steps under dual issue", wide.replayed)
	}
}

// Seeded random programs mix countdown loops (some of them one or two
// iterations long), L1.5 traffic, demands, ecalls whose handler restarts
// or re-points other cores, and stores into other cores' code, under a
// random instruction bound.
func TestReplayRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.L1Lat = 1 + r.Intn(2)
		cfg.L15.WriteBack = r.Intn(2) == 0
		cfg.Clusters = 1 + r.Intn(3)
		progs := make([]string, 4*cfg.Clusters)
		for i := range progs {
			if r.Intn(6) == 0 {
				continue // halted
			}
			progs[i] = randomProgram(r)
		}
		// Overwritten code can loop forever: the bound ends every run.
		max := uint64(50 + r.Intn(20000))
		actions := r.Int63()
		twinRun{
			cfg:   cfg,
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, progs) },
			max:   max,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				hr := rand.New(rand.NewSource(actions))
				return func(c *cpu.Core, _ cpu.Trap) bool {
					other := hr.Intn(len(s.Cores))
					switch hr.Intn(5) {
					case 0:
						return false
					case 1:
						if err := s.SetPageTable(other, s.IdentityPageTable(uint16(1+hr.Intn(2)))); err != nil {
							t.Fatal(err)
						}
					case 2:
						if other != c.ID {
							s.StartCore(other, base(other), 0x80000)
						}
					}
					return true
				}
			},
		}.run(t, fmt.Sprintf("seed=%d", seed))
	}
}

// randomProgram builds a program from random blocks.
func randomProgram(r *rand.Rand) string {
	var b strings.Builder
	for blk := 0; blk < 3+r.Intn(6); blk++ {
		switch r.Intn(7) {
		case 0, 1:
			fmt.Fprintf(&b, "li s%d, %d\nl%d:\naddi s%d, s%d, -1\nbnez s%d, l%d\n",
				blk%8, 1+r.Intn(400), blk, blk%8, blk%8, blk%8, blk)
		case 2:
			fmt.Fprintf(&b, "li t1, %d\nlw t2, 0(t1)\nsw t2, 4(t1)\n", 0x40000+64*r.Intn(64))
		case 3:
			fmt.Fprintf(&b, "li a0, %d\ndemand a0\nsupply a1\nip_set a1\ngv_set a1\n", r.Intn(9))
		case 4:
			b.WriteString("ecall\n")
		case 5:
			// Overwrite a word of another core's code with a nop or
			// the original-looking addi.
			w := uint32(0x00000013) // nop
			if r.Intn(2) == 0 {
				w = 0xfff28293 // addi t0, t0, -1
			}
			fmt.Fprintf(&b, "li t1, %d\nli t2, %d\nsw t1, 0(t2)\n",
				int32(w), base(r.Intn(12))+4*uint32(r.Intn(12)))
		default:
			b.WriteString(strings.Repeat("nop\n", 1+r.Intn(5)))
		}
	}
	b.WriteString("ebreak\n")
	return b.String()
}

// lineBufferConfig is one SoC the fetch line buffer is checked on.
type lineBufferConfig struct {
	name string
	cfg  Config
}

// lineBufferConfigs are every L1 latency from 1 to 3 with 32-, 64- and
// 128-byte L1 lines, under single and dual issue.
func lineBufferConfigs() []lineBufferConfig {
	var cfgs []lineBufferConfig
	for _, lat := range []int{1, 2, 3} {
		for _, line := range []int{32, 64, 128} {
			for _, width := range []int{1, 2} {
				cfg := DefaultConfig()
				cfg.L1Lat, cfg.L1LineBytes = lat, line
				if width == 2 {
					cfg.IssueWidth, cfg.MemPorts = 2, 2
				}
				cfgs = append(cfgs, lineBufferConfig{fmt.Sprintf("L1Lat=%d line=%d width=%d", lat, line, width), cfg})
			}
		}
	}
	return cfgs
}

// A fetch served from the line buffer must leave the state the full
// TLB → L1I → memory chain leaves: the cases below each try to make the
// buffered line stale between two fetches from it.
func TestLineBufferMatchesFetchChain(t *testing.T) {
	// The inner loop (lw, add, addi, bnez) sits in one 16-byte-aligned
	// block, so in one line of every size; its loads walk 17 data pages,
	// so with the code page the TLB's 16 FIFO entries thrash and the code
	// page's entry is evicted between fetches of the same line.
	thrash := `
		li s2, 20
		li t3, 4096
		nop
		nop
	outer:
		li t1, 0x40000
		li t2, 17
	inner:
		lw t0, 0(t1)
		add t1, t1, t3
		addi t2, t2, -1
		bnez t2, inner
		addi s2, s2, -1
		bnez s2, outer
		ebreak
	`
	// A store into the word after itself: the next fetch, from the same
	// line, must see the new instruction, after a word store (addi a0,
	// x0, 7) and after a byte store that retargets li a1, 5 to ra. (Dual
	// issue fetches that word with the store, so it runs the old one.)
	selfModify := fmt.Sprintf("li t1, %d\nli t2, %d\nsw t1, 0(t2)\nnop\nebreak\n",
		int32(word(t, "addi a0, x0, 7")), base(0)+20)
	selfModifyByte := fmt.Sprintf("li t1, 0\nli t2, %d\nsb t1, 0(t2)\nli a1, 5\nebreak\n", base(0)+17)
	// Straight-line code from a line-unaligned start across several line
	// boundaries.
	straight := strings.Repeat("nop\n", 5) + strings.Repeat("addi a0, a0, 1\n", 70) + "ebreak\n"
	// After the ecall the handler maps core 0's code page to a copy whose
	// next word differs; the fetch after the ecall comes from the same
	// virtual line as the ecall.
	remapped := func(a1 int) string { return fmt.Sprintf("li a0, 1\necall\nli a1, %d\nebreak\n", a1) }

	for _, lc := range lineBufferConfigs() {
		name, cfg := lc.name, lc.cfg
		s := twinRun{
			cfg:   cfg,
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{thrash, straight}) },
			max:   1 << 40,
		}.run(t, name+" thrash")
		if got := s.Cores[0].Regs[18]; got != 0 {
			t.Fatalf("%s thrash: outer counter %d", name, got)
		}
		if m := s.ports[0].tlb.Misses; m < 20*17 {
			t.Fatalf("%s thrash: %d TLB misses, want the code page evicted every pass", name, m)
		}
		if got := s.Cores[1].Regs[10]; got != 70 {
			t.Fatalf("%s straight: a0 = %d", name, got)
		}

		s = twinRun{
			cfg:   cfg,
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{selfModify}) },
			max:   1 << 40,
		}.run(t, name+" store")
		if got := s.Cores[0].Regs[10]; cfg.IssueWidth <= 1 && got != 7 {
			t.Fatalf("%s store: a0 = %d, want the stored instruction to run", name, got)
		}
		s = twinRun{
			cfg:   cfg,
			setup: func(t *testing.T, s *SoC) { loadAll(t, s, []string{selfModifyByte}) },
			max:   1 << 40,
		}.run(t, name+" byte store")
		if got := s.Cores[0].Regs[1]; cfg.IssueWidth <= 1 && got != 5 {
			t.Fatalf("%s byte store: ra = %d, want the retargeted li to run", name, got)
		}

		const copyBase = 0x5000
		s = twinRun{
			cfg: cfg,
			setup: func(t *testing.T, s *SoC) {
				loadAll(t, s, []string{remapped(2)})
				if _, err := s.LoadProgram(copyBase, remapped(3)); err != nil {
					t.Fatal(err)
				}
			},
			max: 1 << 40,
			handler: func(s *SoC) func(*cpu.Core, cpu.Trap) bool {
				return func(c *cpu.Core, _ cpu.Trap) bool {
					pt := s.IdentityPageTable(2)
					pt.Map(tlb.VirtAddr(base(0)), copyBase)
					if err := s.SetPageTable(c.ID, pt); err != nil {
						t.Fatal(err)
					}
					return true
				}
			},
		}.run(t, name+" remap")
		if got := s.Cores[0].Regs[11]; got != 3 {
			t.Fatalf("%s remap: a1 = %d, want the remapped copy's word", name, got)
		}
	}
}
