package soc

import (
	"l15cache/internal/cache"
	"l15cache/internal/cpu"
	"l15cache/internal/kernel"
	"l15cache/internal/mem"
)

// Park-cycle replay (DESIGN.md §11). A core the kernel has nothing for
// runs its park cycle — a delay, then an idle-poll ecall the handler
// answers by sending the core back to the cycle's start — over and over.
// The handler reports such a poll with Quiet: it admitted, dispatched and
// halted nothing, and every poll of the core stays so until the core's
// clock reaches until or some handler call is not quiet. Run then measures
// the core's next pass from one ecall to the next (parkMeter), and if the
// pass is periodic and private it skips the handler call that closes it
// and replays the following passes as a loop, settling the core at its
// first poll at or past until, or right after any handler call that is
// not quiet.

// maxPass and maxPassWords bound the steps and words of a measured pass;
// passCap steps are preallocated per core.
const (
	maxPass      = 1 << 12
	maxPassWords = 16
	passCap      = 128
)

// pollState is what a poll's handler reads of and writes to its core.
type pollState struct {
	pc     uint32
	regs   [32]uint32
	priv   cpu.Priv
	cycles uint64
}

func pollOf(c *cpu.Core) pollState {
	return pollState{pc: c.PC, regs: c.Regs, priv: c.Priv, cycles: c.Cycles}
}

// parkMeter measures one pass of a core's park cycle: the steps from a
// quiet poll to the core's next ecall. The pass repeats exactly while the
// polls stay quiet if the core traps in the state it polled in (so the
// handler sends it back to the same start) and every step is private: an
// L1I and TLB hit costing the same fetch stall, no data access, no L1.5
// operation, and no two lines of the pass sharing an L1I set (so after one
// pass each is most recently used in its set and stays so).
type parkMeter struct {
	on     bool
	closed bool   // the pass's closing ecall was measured
	until  uint64 // the poll's horizon (Quiet)

	// The core at the poll that opened the pass, before the handler ran
	// and after it.
	poll, resume pollState
	flush0       uint64 // BranchFlushes after that poll
	stall        uint64 // every step's fetch stall

	rec   []bodyStep
	words []mem.PhysAddr

	// The core and its counters before the step being measured.
	regs                                          [32]uint32
	clock                                         uint64
	stats                                         cpu.Stats
	tlbHits, tlbMisses, l1iHits, l1iMisses, reads uint64
}

// Quiet reports, from inside the handler, that the poll being handled is
// quiet: the handler changed nothing but the trapping core's PC,
// registers and privilege, and does the same to the core at each of its
// polls from the same state until the core's clock reaches until
// (kernel.Never for no horizon) or some handler call does not report
// Quiet. Calls for any other core are ignored.
func (s *SoC) Quiet(core int, until uint64) {
	if core == s.stepCore {
		s.quiet, s.until = true, until
	}
}

// callHandler runs the handler on core c's ecall. Under replay it opens a
// park pass measurement on a quiet poll, and after any other poll it
// settles every parked core and drops every open measurement: the kernel
// state their polls read may have changed.
func (s *SoC) callHandler(c *cpu.Core, trap cpu.Trap, handler func(*cpu.Core, cpu.Trap) bool, replay bool) bool {
	if !replay {
		return handler(c, trap)
	}
	m := &s.loops[c.ID].meter
	m.poll = pollOf(c)
	s.quiet = false
	if !handler(c, trap) {
		return false
	}
	if s.quiet && c.Cycles == m.poll.cycles {
		p := s.ports[c.ID]
		m.on, m.closed, m.until = true, false, s.until
		m.resume, m.flush0 = pollOf(c), c.Stats.BranchFlushes
		m.stall = uint64(max(p.l1i.HitLatency(), 1) - 1)
		m.rec, m.words = m.rec[:0], m.words[:0]
		return true
	}
	for i := range s.loops {
		r := &s.loops[i]
		r.meter.on = false
		if r.on && r.park {
			s.interruptLoop(i)
		}
	}
	return true
}

// before records core c's state ahead of a measured step.
func (m *parkMeter) before(c *cpu.Core, p *port, memory *mem.Memory) {
	m.regs, m.clock, m.stats = c.Regs, c.Cycles, c.Stats
	m.tlbHits, m.tlbMisses = p.tlb.Hits, p.tlb.Misses
	m.l1iHits, m.l1iMisses = p.l1i.Stats.Hits, p.l1i.Stats.Misses
	m.reads = memory.Reads
}

// step adds the step core c just made at pc to the pass, or drops the
// measurement if the step was not private.
func (m *parkMeter) step(c *cpu.Core, p *port, memory *mem.Memory, pc uint32, trap cpu.Trap) {
	st, b := &c.Stats, &m.stats
	f := st.BranchFlushes - b.BranchFlushes
	ok := (trap.Kind == cpu.TrapNone || trap.Kind == cpu.TrapECall) && !c.Halted &&
		p.tlb.Hits == m.tlbHits+1 && p.tlb.Misses == m.tlbMisses &&
		p.l1i.Stats.Hits == m.l1iHits+1 && p.l1i.Stats.Misses == m.l1iMisses &&
		memory.Reads == m.reads+1 && st.Instret == b.Instret+1 &&
		st.FetchStall == b.FetchStall+m.stall && st.LoadUseStalls == b.LoadUseStalls &&
		st.MemStall == b.MemStall && st.L15Ops == b.L15Ops && st.DualIssued == b.DualIssued &&
		f <= 1 && c.Cycles == m.clock+1+m.stall+f*cpu.FlushCycles && len(m.rec) < maxPass && p.lineOK
	rd := 0
	for k := 1; ok && k < len(c.Regs); k++ {
		if c.Regs[k] != m.regs[k] {
			ok = rd == 0
			rd = k
		}
	}
	if !ok || !m.addWord(p.l1i, p.linePA|mem.PhysAddr(pc&^p.lineMask)) {
		m.on = false
		return
	}
	m.rec = append(m.rec, bodyStep{
		clock: m.clock - m.resume.cycles, flushes: b.BranchFlushes - m.flush0,
		pc: pc, rd: uint8(rd), val: c.Regs[rd],
	})
	m.closed = trap.Kind == cpu.TrapECall
}

// addWord notes that the pass fetched the word at pa; it fails if the
// pass has too many words or two of its lines share an L1I set.
func (m *parkMeter) addWord(l1i *cache.Cache, pa mem.PhysAddr) bool {
	set, tag := l1i.Split(uint32(pa))
	for _, w := range m.words {
		if w == pa {
			return true
		}
		if ws, wt := l1i.Split(uint32(w)); ws == set && wt != tag {
			return false
		}
	}
	if len(m.words) == maxPassWords {
		return false
	}
	m.words = append(m.words, pa)
	return true
}

// replayed adds the first n steps of the countdown r, replayed inside the
// pass, to it: their words were fetched by its first, real iteration.
func (m *parkMeter) replayed(c *cpu.Core, r *loop, n uint64) {
	if uint64(len(m.rec))+n > maxPass {
		m.on = false
		return
	}
	l := uint64(len(r.body))
	for j := uint64(0); j < n; j++ {
		q, b := j/l, r.body[j%l]
		if b.rd != 0 && int(b.rd) == r.dec {
			b.val -= uint32(q)
		}
		b.clock = r.clockAt(j) - m.resume.cycles
		b.flushes = c.Stats.BranchFlushes + q*r.flushes + b.flushes - m.flush0
		m.rec = append(m.rec, b)
	}
}

// skipPoll runs on core i's ecall before the handler. If the ecall closes
// a measured pass, trapping in the state the pass's opening poll trapped
// in and before until, the handler would answer it quietly and exactly as
// it answered that poll: skipPoll applies that answer instead of calling
// the handler, and replays the following passes up to the first poll at
// or past until, or to maxInstrs.
func (s *SoC) skipPoll(i int, maxInstrs uint64) bool {
	r, c := &s.loops[i], s.Cores[i]
	m := &r.meter
	if !m.on {
		return false
	}
	m.on = false
	if !m.closed || c.Cycles >= m.until || c.PC != m.poll.pc || c.Regs != m.poll.regs || c.Priv != m.poll.priv {
		return false
	}
	c.PC, c.Regs, c.Priv = m.resume.pc, m.resume.regs, m.resume.priv
	r.park, r.body, r.words, r.dec = true, m.rec, m.words, 0
	r.span, r.flushes, r.stall = c.Cycles-m.resume.cycles, c.Stats.BranchFlushes-m.flush0, m.stall
	n := uint64(len(r.body))
	steps := min(maxInstrs-s.retired[i], maxReplay)
	if m.until != kernel.Never {
		// Pass q closes at s0 + (q+1)·span; the first one closing at
		// or past until ends in the exit step.
		if q := (m.until - c.Cycles - 1) / r.span; q < maxReplay/n {
			steps = min(steps, (q+1)*n)
		}
	}
	if steps >= 2 {
		s.start(r, c.Cycles, steps)
	}
	return true
}
