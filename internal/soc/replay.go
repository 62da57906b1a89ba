package soc

import (
	"l15cache/internal/cpu"
	"l15cache/internal/isa"
	"l15cache/internal/kernel"
	"l15cache/internal/mem"
	"l15cache/internal/tlb"
)

// Periodic-loop replay (DESIGN.md §11). Most retired instructions of an
// RTOS run are spent in loops that touch nothing outside their core: the
// two-instruction countdown
//
//	P:   addi r, r, -1
//	P+4: bne  r, x0, P
//
// of the node compute loop and the park delay, and the whole park cycle
// (delay, then an idle-poll ecall the kernel answers by sending the core
// back to the cycle's start) while the kernel has nothing for the core.
// Once a core runs such a loop from a hot L1I and TLB, every step touches
// only state private to the core — its registers and clock, a TLB hit
// (which changes no entry), an L1I hit on a line that is already most
// recently used in its set (so the PLRU bits do not move) — plus the
// commutative Mem.Reads sum. Run then stops stepping the core: its exit
// step joins the (clock, core index) pick order, and its state at any
// earlier point of one-step execution is derived arithmetically when
// something could observe it (settle points: Run returning, a store to one
// of the loop's words, SetPageTable/StartCore of the core, and for a park
// cycle any handler call that is not quiet).
//
// Both shapes are one loop: a pass of steps that repeats with the same
// cycle and branch costs, each step a one-cycle-plus-fetch-stall L1I hit.
// A countdown's pass is its two words, and each pass counts its register
// down by one; a park cycle's pass is measured step by step (parkMeter)
// and leaves every register as it found it.

// bodyStep is the state one-step execution reaches just before one step
// of a loop's pass, relative to the start of the pass.
type bodyStep struct {
	clock   uint64 // cycles since the pass started
	flushes uint64 // taken branches since the pass started
	pc      uint32
	val     uint32 // the value the step writes to rd in the first pass,
	rd      uint8  // 0 if it writes no register
}

// maxReplay bounds one replay's steps, far beyond any pass a clock could
// overflow on; a longer loop is replayed again after its exit step.
const maxReplay = 1 << 40

// loop is one core's loop detector, its park-cycle meter and, while on,
// its replay.
type loop struct {
	// Countdown detection: the PC of the core's previous step, the head
	// of the loop whose back-branch closed the last iteration, and how
	// many iterations of that loop ran in a row.
	prev  uint32
	head  uint32
	iters int

	// Replay: the pass (body, its cycles span and taken branches, the
	// fetch stall of every step, and dec, the register each pass counts
	// down, 0 for none), the physical words it fetches, the start clock
	// s0 of the first replayed step, the step count including the exit
	// step, the exit step's start clock, and floor, the steps known to
	// have run before a step that went back in time. park marks a park
	// cycle, which a handler call that is not quiet settles.
	on      bool
	park    bool
	body    []bodyStep
	span    uint64
	flushes uint64
	stall   uint64
	dec     int
	words   []mem.PhysAddr
	s0      uint64
	steps   uint64
	wake    uint64
	floor   uint64

	cd      [2]bodyStep // a countdown's pass
	cdWords [2]mem.PhysAddr
	meter   parkMeter
}

// countdownWords are the loop's two encodings with the counter register
// fields zeroed: addi x0, x0, -1 and bne x0, x0, -4.
var countdownWords = func() [2]uint32 {
	a, errA := isa.Encode(isa.Inst{Op: isa.OpADDI, Imm: -1})
	b, errB := isa.Encode(isa.Inst{Op: isa.OpBNE, Imm: -4})
	if errA != nil || errB != nil {
		panic("soc: countdown loop encodings")
	}
	return [2]uint32{a, b}
}()

// countdownReg matches the words at P and P+4 against the countdown loop
// and returns its counter register.
func countdownReg(a, b uint32) (int, bool) {
	const rd, rs1 = 31 << 7, 31 << 15
	r := a >> 7 & 31
	ok := r != 0 && a>>15&31 == r && a&^(rd|rs1) == countdownWords[0] &&
		b == countdownWords[1]|r<<15
	return int(r), ok
}

// clockAt is the start clock of loop step m: pass m/L starts at
// s0 + (m/L)·span, and step m%L of it body[m%L].clock cycles later.
func (r *loop) clockAt(m uint64) uint64 {
	n := uint64(len(r.body))
	return r.s0 + m/n*r.span + r.body[m%n].clock
}

// start turns the replay on from the core's clock s0 for steps steps,
// the last of them the exit step.
func (s *SoC) start(r *loop, s0, steps uint64) {
	r.on, r.s0, r.steps, r.floor = true, s0, steps, 0
	r.wake = r.clockAt(steps - 1)
	s.replaying++
}

// stepsBefore counts the loop steps of core self that one-step execution
// runs before the step of core by starting at clock t: those ordered
// before (t, by) in the (clock, core index) pick order. The exit step is
// never counted; it is a real step.
func (r *loop) stepsBefore(self int, t uint64, by int) uint64 {
	if self < by {
		t++ // a loop step starting at t itself goes first
	}
	if t <= r.s0 {
		return 0
	}
	d := t - r.s0
	m := d / r.span * uint64(len(r.body))
	if rem := d % r.span; rem > 0 {
		// The steps of the pass starting before rem: body[0] starts
		// at 0 and the clocks rise.
		lo, hi := 1, len(r.body)
		for lo < hi {
			if mid := (lo + hi) / 2; r.body[mid].clock < rem {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		m += uint64(lo)
	}
	return min(m, r.steps-1)
}

// done counts the loop steps one-step execution has run by the time it
// picks the step of core by at t. Picks go forward in (clock, core) order
// except after StartCore revives a core whose clock lags behind; such a
// step runs before everything later in that order, so no loop step runs
// in between (holdLoops records the floor).
func (r *loop) done(self int, t uint64, by int) uint64 {
	return max(r.floor, r.stepsBefore(self, t, by))
}

// holdLoops runs before a pick ordered before the previous one: every
// replaying core keeps the steps it had run by the previous pick.
func (s *SoC) holdLoops() {
	for i := range s.loops {
		if r := &s.loops[i]; r.on {
			r.floor = r.done(i, s.stepT, s.stepCore)
		}
	}
}

// trackLoop runs after every step of core i (at pc) while replay is on:
// it counts consecutive iterations of a loop whose back-branch jumps over
// one instruction and tries to start a replay when the first one ends.
func (s *SoC) trackLoop(i int, pc uint32, maxInstrs uint64) {
	r := &s.loops[i]
	next := s.Cores[i].PC
	switch {
	case pc == r.head && next == pc+4:
		// The tracked loop's first instruction: the iteration goes on.
	case next+4 == pc && r.prev == next:
		if r.head != next {
			r.head, r.iters = next, 0
		}
		if r.iters++; r.iters == 1 {
			s.enterLoop(i, maxInstrs)
		}
	default:
		r.iters = 0
	}
	r.prev = pc
}

// enterLoop starts replaying core i, which has just run one iteration of
// the countdown loop at r.head and sits at its head, if every step to the
// exit is private:
//   - both words are the countdown encodings, translated by the TLB and
//     present in the L1I, so each fetch is a hit that costs the same;
//   - the two fetches just made left both lines most recently used in
//     their sets, and the lines share no set unless they are one line, so
//     re-touching them never moves the PLRU bits;
//   - the loop ends before the core reaches maxInstrs.
//
// The step before was a bne, so no load-use stall is pending.
func (s *SoC) enterLoop(i int, maxInstrs uint64) {
	c, p, r := s.Cores[i], s.ports[i], &s.loops[i]
	var words [2]uint32
	for k := range r.cdWords {
		pa, ok := p.tlb.Peek(tlb.VirtAddr(r.head + 4*uint32(k)))
		if !ok || !p.l1i.Holds(uint32(pa)) {
			return
		}
		if words[k], ok = s.Mem.PeekWord(pa); !ok {
			return
		}
		r.cdWords[k] = pa
	}
	reg, ok := countdownReg(words[0], words[1])
	if !ok {
		return
	}
	setA, tagA := p.l1i.Split(uint32(r.cdWords[0]))
	setB, tagB := p.l1i.Split(uint32(r.cdWords[1]))
	if setA == setB && tagA != tagB {
		return
	}
	n := uint64(c.Regs[reg]) // iterations left; a zero counter wraps
	if n == 0 {
		n = 1 << 32
	}
	if 2*n > maxInstrs-s.retired[i] {
		return
	}
	// One cycle plus the fetch stall per step, and the flush per taken
	// bne; each pass counts the register down by one.
	la := uint64(max(p.l1i.HitLatency(), 1))
	r.cd[0] = bodyStep{pc: r.head, rd: uint8(reg), val: c.Regs[reg] - 1}
	r.cd[1] = bodyStep{clock: la, pc: r.head + 4}
	r.park, r.body, r.words, r.dec = false, r.cd[:], r.cdWords[:], reg
	r.span, r.flushes, r.stall = 2*la+cpu.FlushCycles, 1, la-1
	s.start(r, c.Cycles, 2*n)
}

// settleLoop ends core i's replay, leaving the core in the exact state
// one-step execution reaches just before loop step m = q·L + k: m steps
// retired, each a TLB hit, an L1I hit and a memory word read, with q
// passes and k steps of the next one behind it.
func (s *SoC) settleLoop(i int, m uint64) {
	c, p, r := s.Cores[i], s.ports[i], &s.loops[i]
	if r.meter.on && !r.park {
		r.meter.replayed(c, r, m)
	}
	n := uint64(len(r.body))
	q, k := m/n, m%n
	for _, b := range r.body[:k] {
		if b.rd != 0 {
			c.Regs[b.rd] = b.val
		}
	}
	if r.dec != 0 {
		c.Regs[r.dec] -= uint32(q)
	}
	c.PC = r.body[k].pc
	c.Cycles = r.clockAt(m)
	c.Stats.Instret += m
	c.Stats.FetchStall += m * r.stall
	c.Stats.BranchFlushes += q*r.flushes + r.body[k].flushes
	p.tlb.Hits += m
	p.l1i.Stats.Hits += m
	s.Mem.Reads += m
	s.retired[i] += m
	s.replayed += m
	r.on, r.iters = false, 0
	s.replaying--
}

// interruptLoop settles core i, if it is replaying, to the current step
// (or, inside the handler, to the trapping step), and drops its park pass
// measurement.
func (s *SoC) interruptLoop(i int) {
	r := &s.loops[i]
	if r.on {
		s.settleLoop(i, r.done(i, s.stepT, s.stepCore))
	}
	r.meter.on = false
}

// settleLoops settles every replaying core; Run calls it on return.
func (s *SoC) settleLoops() {
	for i := range s.loops {
		if s.replaying == 0 {
			return
		}
		s.interruptLoop(i)
	}
}

// storeLoops settles every core replaying a loop whose words the store of
// size bytes at pa overwrites, and drops every park pass measurement that
// fetched one of them: the core runs the new code from then on.
func (s *SoC) storeLoops(pa mem.PhysAddr, size int) {
	for i := range s.loops {
		r := &s.loops[i]
		if r.on && overlaps(r.words, pa, size) {
			s.interruptLoop(i)
		}
		if r.meter.on && overlaps(r.meter.words, pa, size) {
			r.meter.on = false
		}
	}
}

// overlaps reports whether a store of size bytes at pa overlaps one of
// the words.
func overlaps(words []mem.PhysAddr, pa mem.PhysAddr, size int) bool {
	for _, w := range words {
		if pa < w+4 && w < pa+mem.PhysAddr(size) {
			return true
		}
	}
	return false
}

// replayedBetween reports whether some loop step falls between the step
// of core by0 at t0 and that of core by1 at t1 in one-step order.
func (s *SoC) replayedBetween(t0 uint64, by0 int, t1 uint64, by1 int) bool {
	for i := range s.loops {
		r := &s.loops[i]
		if r.on && r.done(i, t1, by1) > r.done(i, t0, by0) {
			return true
		}
	}
	return false
}

// globalTime is the time one-step execution brings the SDUs to after the
// step of core by at t: the minimum clock of the running (non-halted)
// cores, a replaying core at the start of its first loop step after that
// step; with every core halted, the maximum clock.
func (s *SoC) globalTime(t uint64, by int) uint64 {
	global, last := kernel.Never, uint64(0)
	for i, c := range s.Cores {
		clk := c.Cycles
		if r := &s.loops[i]; r.on {
			clk = r.clockAt(r.done(i, t, by))
		}
		last = max(last, clk)
		if !c.Halted {
			global = min(global, clk)
		}
	}
	if global == kernel.Never {
		return last
	}
	return global
}
