package soc

import (
	"l15cache/internal/cpu"
	"l15cache/internal/isa"
	"l15cache/internal/kernel"
	"l15cache/internal/mem"
	"l15cache/internal/tlb"
)

// Countdown-loop replay (DESIGN.md §11). Most retired instructions of an
// RTOS run are the two-instruction countdown
//
//	P:   addi r, r, -1
//	P+4: bne  r, x0, P
//
// of the idle park loop and the node compute loop. Once a core runs it
// from a hot L1I and TLB, every step touches only state private to the
// core — its registers and clock, a TLB hit (which changes no entry), an
// L1I hit on a line that is already most recently used in its set (so the
// PLRU bits do not move) — plus the commutative Mem.Reads sum. Run then
// stops stepping the core: its exit step (the falling-through bne) joins
// the (clock, core index) pick order, and its state at any earlier point
// of one-step execution is derived arithmetically when something could
// observe it (settle points: Run returning, a store to one of the two
// loop words, SetPageTable/StartCore of the core).

// countdown is one core's loop detector and, while on, its replay.
type countdown struct {
	// Detection: the PC of the core's previous step, the head of the
	// loop whose back-branch closed the last iteration, and how many
	// iterations of that loop ran in a row.
	prev  uint32
	pc    uint32
	iters int

	// Replay: the counter register, the loop words' physical addresses,
	// the start clock s0 of the first replayed step, the cycles of one
	// addi (la, all but one of them fetch stall) and one taken bne (lb),
	// the loop's step count including the exit step, and floor, the
	// steps known to have run before a step that went back in time.
	on     bool
	reg    int
	pa     [2]mem.PhysAddr
	s0     uint64
	la, lb uint64
	steps  uint64
	floor  uint64
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

// clockAt is the start clock of loop step m: iteration m/2's addi starts
// at s0 + (m/2)(la+lb), its bne la cycles later.
func (r *countdown) clockAt(m uint64) uint64 {
	return r.s0 + m/2*(r.la+r.lb) + m%2*r.la
}

// exit is the start clock of the exit step, the core's wakeup.
func (r *countdown) exit() uint64 { return r.clockAt(r.steps - 1) }

// stepsBefore counts the loop steps of core self that one-step execution
// runs before the step of core by starting at clock t: those ordered
// before (t, by) in the (clock, core index) pick order. The exit step is
// never counted; it is a real step.
func (r *countdown) stepsBefore(self int, t uint64, by int) uint64 {
	if self < by {
		t++ // a loop step starting at t itself goes first
	}
	if t <= r.s0 {
		return 0
	}
	d := t - r.s0
	m := 2 * (d / (r.la + r.lb))
	if rem := d % (r.la + r.lb); rem > r.la {
		m += 2
	} else if rem > 0 {
		m++
	}
	return min(m, r.steps-1)
}

// done counts the loop steps one-step execution has run by the time it
// picks the step of core by at t. Picks go forward in (clock, core) order
// except after StartCore revives a core whose clock lags behind; such a
// step runs before everything later in that order, so no loop step runs
// in between (holdLoops records the floor).
func (r *countdown) done(self int, t uint64, by int) uint64 {
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
	case pc == r.pc && next == pc+4:
		// The tracked loop's first instruction: the iteration goes on.
	case next+4 == pc && r.prev == next:
		if r.pc != next {
			r.pc, r.iters = next, 0
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
// the loop at r.pc and sits at its head, if every step to the exit is
// private:
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
	for k := range r.pa {
		pa, ok := p.tlb.Peek(tlb.VirtAddr(r.pc + 4*uint32(k)))
		if !ok || !p.l1i.Holds(uint32(pa)) {
			return
		}
		if words[k], ok = s.Mem.PeekWord(pa); !ok {
			return
		}
		r.pa[k] = pa
	}
	reg, ok := countdownReg(words[0], words[1])
	if !ok {
		return
	}
	setA, tagA := p.l1i.Split(uint32(r.pa[0]))
	setB, tagB := p.l1i.Split(uint32(r.pa[1]))
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
	r.on, r.reg, r.s0, r.steps, r.floor = true, reg, c.Cycles, 2*n, 0
	r.la = uint64(max(p.l1i.HitLatency(), 1)) // one cycle plus the fetch stall
	r.lb = r.la + cpu.FlushCycles
	s.replaying++
}

// settleLoop ends core i's replay, leaving the core in the exact state
// one-step execution reaches just before loop step m: m steps retired,
// (m+1)/2 of them addi and m/2 taken bne, each a TLB hit, an L1I hit and
// a memory word read.
func (s *SoC) settleLoop(i int, m uint64) {
	c, p, r := s.Cores[i], s.ports[i], &s.loops[i]
	c.Regs[r.reg] -= uint32((m + 1) / 2)
	c.PC = r.pc + 4*uint32(m%2)
	c.Cycles = r.clockAt(m)
	c.Stats.Instret += m
	c.Stats.FetchStall += m * (r.la - 1)
	c.Stats.BranchFlushes += m / 2
	p.tlb.Hits += m
	p.l1i.Stats.Hits += m
	s.Mem.Reads += m
	s.retired[i] += m
	s.replayed += m
	r.on, r.iters = false, 0
	s.replaying--
}

// interruptLoop settles core i, if it is replaying, to the current step
// (or, inside the handler, to the trapping step).
func (s *SoC) interruptLoop(i int) {
	if r := &s.loops[i]; r.on {
		s.settleLoop(i, r.done(i, s.stepT, s.stepCore))
	}
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
// size bytes at pa overwrites: it runs the new code from then on.
func (s *SoC) storeLoops(pa mem.PhysAddr, size int) {
	for i := range s.loops {
		r := &s.loops[i]
		if !r.on {
			continue
		}
		for _, w := range r.pa {
			if pa < w+4 && w < pa+mem.PhysAddr(size) {
				s.interruptLoop(i)
				break
			}
		}
	}
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
