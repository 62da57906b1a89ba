// Package soc assembles the full simulated System-on-Chip of §2.2 / §5:
// clusters of four 5-stage RV32I cores, each core with private L1 I$/D$ and
// a TLB, one L1.5 Cache per cluster, a shared write-through L2, and external
// memory. The per-core memory port routes accesses the way the IPUs do:
// virtual address → TLB → L1 → L1.5 (mask-filtered) → L2 → DRAM, and the
// Mini-Decoder path delivers the five L1.5 instructions to the cluster's
// control port.
package soc

import (
	"fmt"

	"l15cache/internal/bitmap"
	"l15cache/internal/cache"
	"l15cache/internal/cpu"
	"l15cache/internal/flight"
	"l15cache/internal/isa"
	"l15cache/internal/kernel"
	"l15cache/internal/l15"
	"l15cache/internal/mem"
	"l15cache/internal/metrics"
	"l15cache/internal/tlb"
)

// Config describes the SoC, defaulting to the paper's evaluation platform.
type Config struct {
	Clusters    int
	ClusterSize int

	L1Bytes     int // per core, I$ and D$ each
	L1Ways      int
	L1LineBytes int
	L1Lat       int // 1-2 cycles in the paper; we use the base

	L15 l15.Config // per cluster (Cores is overwritten with ClusterSize)

	L2Bytes     int
	L2Ways      int
	L2LineBytes int
	L2Lat       int // 15-25 cycles; base 20

	MemBytes int
	MemLat   int // external memory

	TLBEntries int
	TLBMissLat int

	// UARTAddr is the physical address of the memory-mapped console: a
	// byte stored there is appended to SoC.UART (handy for bare-metal
	// program output). 0 disables the device.
	UARTAddr uint32

	// IssueWidth selects the cores' issue width: 1 (default) is the
	// paper's 5-stage in-order Rocket-style core; 2 enables the §3.3
	// dual-issue front end. MemPorts is the per-group memory-operation
	// budget (2 models the L1.5's ported front end).
	IssueWidth int
	MemPorts   int

	// Kernel selects the simulator kernel. kernel.Events (the zero
	// value) jumps each cluster's SDU clock across idle stretches;
	// kernel.Ticked advances it cycle by cycle. Both land on the same
	// counter values, so recordings are byte-identical (DESIGN.md §11).
	Kernel kernel.Mode
}

// DefaultConfig is the 8-core (two cluster) configuration of §5.
func DefaultConfig() Config {
	return Config{
		Clusters:    2,
		ClusterSize: 4,
		L1Bytes:     4 * 1024,
		L1Ways:      2,
		L1LineBytes: 64,
		L1Lat:       1,
		L15:         l15.DefaultConfig(),
		L2Bytes:     512 * 1024,
		L2Ways:      8,
		L2LineBytes: 64,
		L2Lat:       20,
		MemBytes:    16 * 1024 * 1024,
		MemLat:      80,
		TLBEntries:  16,
		TLBMissLat:  20,
		UARTAddr:    0x00ff0000,
	}
}

// l2Level adapts the shared L2 + DRAM as the L1.5's next level.
type l2Level struct {
	c   *cache.Cache
	lat int
	mem *mem.Memory
}

func (l *l2Level) Access(pa mem.PhysAddr, write bool) int {
	set, tag := l.c.Split(uint32(pa))
	res := l.c.Access(set, tag, write, l.c.AllWays())
	if res.Hit {
		return l.lat
	}
	return l.lat + l.mem.Latency()
}

// Cluster is one computing cluster: ClusterSize cores sharing an L1.5.
type Cluster struct {
	ID  int
	L15 *l15.L15
}

// SoC is the assembled system.
type SoC struct {
	Cfg      Config
	Mem      *mem.Memory
	L2       *cache.Cache
	Clusters []*Cluster
	Cores    []*cpu.Core

	// UART accumulates the bytes programs store to Cfg.UARTAddr.
	UART []byte

	l2lvl *l2Level
	ports []*port

	// Run state: instructions retired per core, the loop replays
	// (replay.go, park.go), how many are on and how many steps they
	// have replayed so far, the clock and core of the step being
	// executed (of the trapping step inside the handler), and whether
	// the handler running reported a quiet poll, with its horizon.
	retired   []uint64
	loops     []loop
	replaying int
	replayed  uint64
	stepT     uint64
	stepCore  int
	quiet     bool
	until     uint64
}

// New builds the SoC.
func New(cfg Config) (*SoC, error) {
	if cfg.Clusters <= 0 || cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("soc: bad cluster configuration %d×%d", cfg.Clusters, cfg.ClusterSize)
	}
	m, err := mem.New(cfg.MemBytes, cfg.MemLat)
	if err != nil {
		return nil, err
	}
	l2c, err := cache.New(cfg.L2Bytes, cfg.L2Ways, cfg.L2LineBytes, cfg.L2Lat)
	if err != nil {
		return nil, fmt.Errorf("soc: L2: %w", err)
	}
	s := &SoC{Cfg: cfg, Mem: m, L2: l2c, l2lvl: &l2Level{c: l2c, lat: cfg.L2Lat, mem: m}}

	for cl := 0; cl < cfg.Clusters; cl++ {
		l15cfg := cfg.L15
		l15cfg.Cores = cfg.ClusterSize
		lc, err := l15.New(l15cfg, s.l2lvl)
		if err != nil {
			return nil, fmt.Errorf("soc: cluster %d: %w", cl, err)
		}
		s.Clusters = append(s.Clusters, &Cluster{ID: cl, L15: lc})
	}

	total := cfg.Clusters * cfg.ClusterSize
	for id := 0; id < total; id++ {
		p, err := s.newPort(id)
		if err != nil {
			return nil, err
		}
		s.ports = append(s.ports, p)
		core, err := cpu.New(id, p, 0)
		if err != nil {
			return nil, err
		}
		if cfg.IssueWidth > 1 {
			core.Width = cfg.IssueWidth
			core.MemPorts = cfg.MemPorts
		}
		s.Cores = append(s.Cores, core)
	}
	s.retired = make([]uint64, total)
	s.loops = make([]loop, total)
	// Every core's park pass buffers, in one block each; a longer pass
	// grows its own.
	recs := make([]bodyStep, total*passCap)
	words := make([]mem.PhysAddr, total*maxPassWords)
	for i := range s.loops {
		m := &s.loops[i].meter
		m.rec = recs[i*passCap : i*passCap : (i+1)*passCap]
		m.words = words[i*maxPassWords : i*maxPassWords : (i+1)*maxPassWords]
	}
	return s, nil
}

// Instrument publishes the whole SoC to the observability layer. reg
// gets per-core L1 I$/D$ and TLB counters, per-cluster L1.5 counters with
// SDU latency histograms (see l15.Instrument), the shared L2, and
// aggregate rollups (soc.l1.*, soc.tlb.*, per-cluster soc.clusterN.l15.*,
// soc.instret, soc.cycles); the counters are collected lazily, so the
// simulation hot path is unaffected until a snapshot is taken. rec, the
// SoC's one event sink, gets every L1.5's way reassignments and gv_set
// calls as typed, tick-stamped events carrying the cluster index (see
// l15.FlightRecord). Either argument may be nil; a nil rec detaches the
// recorder an earlier call attached.
func (s *SoC) Instrument(reg *metrics.Registry, rec *flight.Recorder) {
	for _, cl := range s.Clusters {
		cl.L15.Instrument(reg, fmt.Sprintf("soc.cluster%d.l15", cl.ID))
		cl.L15.FlightRecord(rec, cl.ID)
	}
	if reg == nil {
		return
	}
	for i, p := range s.ports {
		p.l1i.PublishMetrics(reg, fmt.Sprintf("soc.core%02d.l1i", i))
		p.l1d.PublishMetrics(reg, fmt.Sprintf("soc.core%02d.l1d", i))
		p.tlb.PublishMetrics(reg, fmt.Sprintf("soc.core%02d.tlb", i))
	}
	s.L2.PublishMetrics(reg, "soc.l2")
	reg.RegisterCollector(func(r *metrics.Registry) {
		var l1Hits, l1Misses, tlbHits, tlbMisses uint64
		for _, p := range s.ports {
			l1Hits += p.l1i.Stats.Hits + p.l1d.Stats.Hits
			l1Misses += p.l1i.Stats.Misses + p.l1d.Stats.Misses
			tlbHits += p.tlb.Hits
			tlbMisses += p.tlb.Misses
		}
		r.Counter("soc.l1.hits").Store(l1Hits)
		r.Counter("soc.l1.misses").Store(l1Misses)
		r.Counter("soc.tlb.hits").Store(tlbHits)
		r.Counter("soc.tlb.misses").Store(tlbMisses)
		var instret, cycles uint64
		for _, c := range s.Cores {
			instret += c.Stats.Instret
			if c.Cycles > cycles {
				cycles = c.Cycles
			}
		}
		r.Counter("soc.instret").Store(instret)
		r.Counter("soc.cycles").Store(cycles)
	})
}

// ClusterOf returns the cluster containing the core.
func (s *SoC) ClusterOf(core int) *Cluster {
	return s.Clusters[core/s.Cfg.ClusterSize]
}

// localIndex is the core's index within its cluster.
func (s *SoC) localIndex(core int) int { return core % s.Cfg.ClusterSize }

// SetPageTable binds an address space to the core: its TLB is flushed and
// the cluster's TID control register is loaded (the context-switch
// sequence).
func (s *SoC) SetPageTable(core int, pt *tlb.PageTable) error {
	if core < 0 || core >= len(s.Cores) {
		return fmt.Errorf("soc: core %d out of range", core)
	}
	s.interruptLoop(core)
	s.ports[core].tlb.SetPageTable(pt)
	s.ports[core].lineOK = false
	return s.ClusterOf(core).L15.SetTID(s.localIndex(core), pt.TID)
}

// IdentityPageTable maps the whole physical memory 1:1 for the given task
// ID — the bring-up mapping the bare-metal tests and examples use.
func (s *SoC) IdentityPageTable(tid uint16) *tlb.PageTable {
	pt := tlb.NewPageTable(tid)
	pt.MapRange(0, 0, s.Cfg.MemBytes)
	return pt
}

// Run advances the system until every core is halted or maxInstrs
// instructions have retired per core. Cores are stepped in local-time
// order (the earliest core executes next, ties to the lower index), which
// keeps the interleaving deterministic, and each cluster's SDU ticks
// forward with global time. The handler receives ECALL traps (may be
// nil); ebreak halts only its own core. The first error trap (illegal
// instruction, privilege violation, memory fault) on any core stops the
// run and is returned.
//
// Under the events kernel with single issue, a core running a countdown
// loop from a hot L1I, or a park cycle whose polls the handler reports
// quiet (Quiet), is replayed in closed form instead of stepped (replay.go,
// park.go); every state it leaves behind is the one-step state, and the
// handler is not called for the polls of a replayed park cycle. Inside
// the handler, therefore, only the trapping core's state and the other
// cores' Halted flags are current. The handler may change the trapping
// core, the L1.5 control registers, and any core through SetPageTable or
// StartCore (which settle it first); it must not write another core's
// registers, clock or Halted flag directly, nor write memory except
// through a core's stores.
func (s *SoC) Run(maxInstrs uint64, handler func(*cpu.Core, cpu.Trap) bool) (cpu.Trap, error) {
	replay := s.Cfg.Kernel == kernel.Events && s.Cfg.IssueWidth <= 1
	clear(s.retired)
	for i := range s.loops {
		m := &s.loops[i].meter
		s.loops[i] = loop{meter: parkMeter{rec: m.rec[:0], words: m.words[:0]}}
	}
	s.replaying = 0
	// stale: a step ran since the SDUs were last brought to the global
	// time. One-step execution does that after every step; replay defers
	// it to just before the next step that can observe it.
	stale := false
	for {
		// Pick the core with the earliest wakeup (its local clock; a
		// replaying core's exit step; halted cores report kernel.Never
		// and drop out). Cores frozen by maxInstrs still hold the global
		// time back.
		best, bestWake, frozen := -1, kernel.Never, kernel.Never
		for i, c := range s.Cores {
			w := c.NextWakeup()
			if r := &s.loops[i]; r.on {
				w = r.wake
			}
			if s.retired[i] >= maxInstrs {
				frozen = min(frozen, w)
				continue
			}
			if w < bestWake {
				best, bestWake = i, w
			}
		}
		if best < 0 {
			if stale {
				// No loop is on once no core can step.
				s.advanceSDUs(s.globalTime(0, 0))
			}
			return cpu.Trap{}, nil
		}
		if s.replaying > 0 && (bestWake < s.stepT || bestWake == s.stepT && best < s.stepCore) {
			s.holdLoops()
		}
		if stale || s.replaying > 0 && s.replayedBetween(s.stepT, s.stepCore, bestWake, best) {
			// The global time after the step one-step execution ran last.
			s.advanceSDUs(kernel.Earliest(bestWake, frozen))
		}
		r := &s.loops[best]
		if r.on {
			s.settleLoop(best, r.steps-1)
		}
		s.stepT, s.stepCore = bestWake, best
		c, p := s.Cores[best], s.ports[best]
		pc := c.PC
		if r.meter.on {
			r.meter.before(c, p, s.Mem)
		}
		trap, err := c.StepIssue()
		if err != nil {
			s.settleLoops()
			return trap, err
		}
		s.retired[best]++
		if replay {
			stale = true
			if r.meter.on {
				r.meter.step(c, p, s.Mem, pc, trap)
			}
			s.trackLoop(best, pc, maxInstrs)
		} else {
			s.advanceSDUs(s.globalTime(bestWake, best))
		}
		if trap.Kind == cpu.TrapNone || trap.Kind == cpu.TrapEBreak {
			// An ebreak halts its own core; the rest of the SoC runs on.
			continue
		}
		if trap.Kind == cpu.TrapECall && replay && s.skipPoll(best, maxInstrs) {
			continue
		}
		if stale {
			s.advanceSDUs(s.globalTime(bestWake, best))
			stale = false
		}
		if trap.Kind == cpu.TrapECall {
			if handler != nil && s.callHandler(c, trap, handler, replay) {
				continue
			}
			c.Halted = true
		}
		s.settleLoops()
		return trap, nil
	}
}

// Replayed returns how many steps the runs so far replayed in closed form
// instead of stepping (DESIGN.md §11); every other retired instruction was
// a real step.
func (s *SoC) Replayed() uint64 { return s.replayed }

// advanceSDUs brings every cluster's Walloc to the global time target,
// preserving the one-way-per-cycle constraint. Under the events kernel a
// cluster whose SDU reports no wakeup (kernel.Never) jumps its counter
// straight to the target instead of idling through the gap cycle by
// cycle; both kernels reach the same counter value, so every tick-stamped
// event is identical. A target in the past is a no-op, and between two
// external calls advancing to a then b equals advancing to b, which is
// why replay may skip the targets of the steps it does not run.
func (s *SoC) advanceSDUs(target uint64) {
	for _, cl := range s.Clusters {
		if s.Cfg.Kernel == kernel.Ticked {
			for cl.L15.Ticks() < target {
				cl.L15.Tick()
			}
		} else {
			cl.L15.AdvanceTo(target)
		}
	}
}

// SettleSDU runs every cluster's SDU for n extra cycles (useful after a
// halted program to let pending demands finish in tests).
func (s *SoC) SettleSDU(n int) {
	for _, cl := range s.Clusters {
		if s.Cfg.Kernel == kernel.Ticked {
			for i := 0; i < n; i++ {
				cl.L15.Tick()
			}
		} else {
			cl.L15.AdvanceTo(cl.L15.Ticks() + uint64(n))
		}
	}
}

// LoadProgram assembles the source and loads it at base, returning the
// number of words.
func (s *SoC) LoadProgram(base uint32, src string) (int, error) {
	words, err := isa.Assemble(src, base)
	if err != nil {
		return 0, err
	}
	if err := s.Mem.LoadProgram(mem.PhysAddr(base), words); err != nil {
		return 0, err
	}
	return len(words), nil
}

// StartCore points the core at pc with a fresh register file, kernel
// privilege and the given stack pointer.
func (s *SoC) StartCore(core int, pc, sp uint32) {
	s.interruptLoop(core)
	c := s.Cores[core]
	c.PC = pc
	c.Priv = cpu.PrivKernel
	c.Halted = false
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	c.Regs[2] = sp
}

// port implements cpu.MemSystem for one core.
type port struct {
	soc  *SoC
	core int

	tlb *tlb.TLB
	l1i *cache.Cache
	l1d *cache.Cache

	// Fetch line buffer (used under the events kernel): the VA and PA
	// bases of the line the last fetch went to, and the TLB miss count
	// then. While lineOK and no TLB miss or flush has happened since,
	// that line is in the L1I, most recently used in its set, and its
	// translation is in the TLB (DESIGN.md §11). lineMask clears the
	// offset within min(L1 line, page).
	lineOK     bool
	lineVA     uint32
	linePA     mem.PhysAddr
	lineMisses uint64
	lineMask   uint32
}

func (s *SoC) newPort(core int) (*port, error) {
	cfg := s.Cfg
	t, err := tlb.New(cfg.TLBEntries, cfg.TLBMissLat)
	if err != nil {
		return nil, err
	}
	l1i, err := cache.New(cfg.L1Bytes, cfg.L1Ways, cfg.L1LineBytes, cfg.L1Lat)
	if err != nil {
		return nil, fmt.Errorf("soc: L1I: %w", err)
	}
	l1d, err := cache.New(cfg.L1Bytes, cfg.L1Ways, cfg.L1LineBytes, cfg.L1Lat)
	if err != nil {
		return nil, fmt.Errorf("soc: L1D: %w", err)
	}
	span := uint32(min(cfg.L1LineBytes, tlb.PageSize))
	return &port{soc: s, core: core, tlb: t, l1i: l1i, l1d: l1d, lineMask: ^(span - 1)}, nil
}

// access runs the IPU-routed lookup chain for one reference and returns its
// latency. l1 is the stage-appropriate private cache (I$ or D$).
func (p *port) access(l1 *cache.Cache, va uint32, pa mem.PhysAddr, write bool) int {
	lat := 0
	set, tag := l1.Split(uint32(pa))
	res := l1.Access(set, tag, write, l1.AllWays())
	lat += l1.HitLatency()
	if res.Hit {
		if !write {
			return lat
		}
		// Write-through: the store continues toward the L1.5/L2 but
		// is absorbed by the store buffer; the L1.5 still records it
		// for the sharing semantics.
	}
	cluster := p.soc.ClusterOf(p.core)
	local := p.soc.localIndex(p.core)
	if write {
		if _, err := cluster.L15.Store(local, va, pa); err == nil {
			// Posted write: no extra cycles charged to the core.
			return lat
		}
		return lat
	}
	r, err := cluster.L15.Load(local, va, pa)
	if err != nil {
		return lat
	}
	return lat + r.Latency
}

// FetchWord implements cpu.MemSystem. Under the events kernel a fetch
// from the line the previous fetch went to skips the TLB scan and the set
// lookup: it is a TLB hit and an L1I hit on the set's most recently used
// way, which change nothing but the two hit counters. The word itself is
// still read, so a store into the line is seen.
func (p *port) FetchWord(core int, va uint32) (uint32, int, error) {
	if p.lineOK && va&p.lineMask == p.lineVA && p.tlb.Misses == p.lineMisses &&
		p.soc.Cfg.Kernel == kernel.Events {
		p.tlb.Hits++
		p.l1i.Stats.Hits++
		w, err := p.soc.Mem.ReadWord(p.linePA | mem.PhysAddr(va&^p.lineMask))
		if err != nil {
			return 0, 0, err
		}
		return w, p.l1i.HitLatency(), nil
	}
	p.lineOK = false
	pa, tlat, err := p.tlb.Translate(tlb.VirtAddr(va))
	if err != nil {
		return 0, 0, err
	}
	lat := tlat + p.access(p.l1i, va, pa, false)
	w, err := p.soc.Mem.ReadWord(pa)
	if err != nil {
		return 0, 0, err
	}
	p.lineOK, p.lineVA, p.linePA, p.lineMisses = true, va&p.lineMask, pa&mem.PhysAddr(p.lineMask), p.tlb.Misses
	return w, lat, nil
}

// Load implements cpu.MemSystem.
func (p *port) Load(core int, va uint32, size int) (uint32, int, error) {
	pa, tlat, err := p.tlb.Translate(tlb.VirtAddr(va))
	if err != nil {
		return 0, 0, err
	}
	lat := tlat + p.access(p.l1d, va, pa, false)
	var v uint32
	switch size {
	case 1:
		b, err := p.soc.Mem.LoadByte(pa)
		if err != nil {
			return 0, 0, err
		}
		v = uint32(b)
	case 2:
		for i := 0; i < 2; i++ {
			b, err := p.soc.Mem.LoadByte(pa + mem.PhysAddr(i))
			if err != nil {
				return 0, 0, err
			}
			v |= uint32(b) << (8 * i)
		}
	case 4:
		w, err := p.soc.Mem.ReadWord(pa)
		if err != nil {
			return 0, 0, err
		}
		v = w
	default:
		//lint:ignore hotalloc impossible-size guard: built only on a malformed access, which halts the core
		return 0, 0, fmt.Errorf("soc: bad load size %d", size)
	}
	return v, lat, nil
}

// Store implements cpu.MemSystem.
func (p *port) Store(core int, va uint32, size int, value uint32) (int, error) {
	pa, tlat, err := p.tlb.Translate(tlb.VirtAddr(va))
	if err != nil {
		return 0, err
	}
	// Memory-mapped console: a single-cycle posted write, no cache
	// involvement.
	if p.soc.Cfg.UARTAddr != 0 && uint32(pa) == p.soc.Cfg.UARTAddr {
		p.soc.UART = append(p.soc.UART, byte(value))
		return tlat + 1, nil
	}
	p.soc.storeLoops(pa, size)
	lat := tlat + p.access(p.l1d, va, pa, true)
	switch size {
	case 1:
		err = p.soc.Mem.StoreByte(pa, byte(value))
	case 2:
		for i := 0; i < 2 && err == nil; i++ {
			err = p.soc.Mem.StoreByte(pa+mem.PhysAddr(i), byte(value>>(8*i)))
		}
	case 4:
		err = p.soc.Mem.WriteWord(pa, value)
	default:
		//lint:ignore hotalloc impossible-size guard: built only on a malformed access, which halts the core
		err = fmt.Errorf("soc: bad store size %d", size)
	}
	if err != nil {
		return 0, err
	}
	return lat, nil
}

// L15Op implements cpu.MemSystem: the Mini-Decoder path to the cluster's
// control port. Control-register accesses take one cycle.
func (p *port) L15Op(core int, op isa.Op, operand uint32) (uint32, int, error) {
	cl := p.soc.ClusterOf(p.core).L15
	local := p.soc.localIndex(p.core)
	const lat = 1
	switch op {
	case isa.OpDEMAND:
		n := int(operand)
		if n > cl.Config().Ways {
			n = cl.Config().Ways
		}
		return 0, lat, cl.Demand(local, n)
	case isa.OpSUPPLY:
		bm, err := cl.Supply(local)
		return uint32(bm), lat, err
	case isa.OpGVSET:
		return 0, lat, cl.GVSet(local, bitmapFrom(operand, cl.Config().Ways))
	case isa.OpGVGET:
		bm, err := cl.GVGet(local)
		return uint32(bm), lat, err
	case isa.OpIPSET:
		return 0, lat, cl.IPSet(local, bitmapFrom(operand, cl.Config().Ways))
	default:
		//lint:ignore hotalloc impossible-op guard: executeDecoded routes only L1.5 ops here; the error halts the core
		return 0, 0, fmt.Errorf("soc: not an L1.5 op: %v", op)
	}
}

// bitmapFrom bounds a register operand to the cluster's way count: the
// mask registers are ζ bits wide, so operand bits past the configured ways
// do not exist in hardware and must not leak into the mask logic.
func bitmapFrom(v uint32, ways int) bitmap.Bitmap {
	return bitmap.Bitmap(v).Intersect(bitmap.FirstN(ways))
}
