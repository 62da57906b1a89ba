// Package cpu models the SoC's processor cores: 5-stage pipelined,
// single-issue, in-order RV32I (the paper builds on Rocket) extended with
// the L1.5 Cache ISA of Table 1.
//
// The model executes instructions functionally and charges cycles with a
// pipeline cost model instead of simulating every stage transfer:
//
//   - 1 cycle per instruction (the pipelined steady state);
//   - instruction-fetch latency beyond 1 cycle stalls the front end;
//   - load/store latency beyond 1 cycle stalls the MA stage;
//   - a taken branch or jump flushes IF/ID: +2 cycles;
//   - a load-use hazard (consumer immediately after a load) stalls 1 cycle;
//   - L1.5 instructions execute at the MA stage through the Mini-Decoder
//     (§2.2); their results return through the dedicated L1.5→EX forwarding
//     channel (Fig. 3-d), so they add no extra hazard stall.
//
// demand is privileged (Table 1): executing it in user mode raises a
// privilege trap.
package cpu

import (
	"fmt"

	"l15cache/internal/isa"
	"l15cache/internal/kernel"
)

// Priv is the privilege level, following Table 1's encoding: 1 = kernel,
// 0 = user.
type Priv int

// Privilege levels.
const (
	PrivUser   Priv = 0
	PrivKernel Priv = 1
)

// TrapKind classifies traps.
type TrapKind int

// Trap kinds.
const (
	TrapNone TrapKind = iota
	TrapECall
	TrapEBreak
	TrapIllegal
	TrapPrivilege
	TrapMemFault
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapECall:
		return "ecall"
	case TrapEBreak:
		return "ebreak"
	case TrapIllegal:
		return "illegal instruction"
	case TrapPrivilege:
		return "privilege violation"
	case TrapMemFault:
		return "memory fault"
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap describes a trap raised during Step.
type Trap struct {
	Kind TrapKind
	PC   uint32
	Info string
}

// MemSystem is the core's view of the memory hierarchy: the IF stage's
// instruction port, the MA stage's data port (both routed through the IPU,
// the private L1s, the cluster's L1.5 and the shared levels), and the L1.5
// control port reached through the Mini-Decoder.
type MemSystem interface {
	// FetchWord reads the instruction word at va, returning the access
	// latency in cycles.
	FetchWord(core int, va uint32) (word uint32, latency int, err error)

	// Load reads size bytes (1, 2 or 4) at va, zero-extended into a
	// uint32; the caller sign-extends as the opcode requires.
	Load(core int, va uint32, size int) (value uint32, latency int, err error)

	// Store writes the low size bytes of value at va.
	Store(core int, va uint32, size int, value uint32) (latency int, err error)

	// L15Op executes one L1.5 instruction. For supply/gv_get the result
	// is returned; for demand/gv_set/ip_set the operand carries the
	// request.
	L15Op(core int, op isa.Op, operand uint32) (result uint32, latency int, err error)
}

// Stats counts core events.
type Stats struct {
	Instret       uint64 // retired instructions
	LoadUseStalls uint64
	BranchFlushes uint64
	FetchStall    uint64 // cycles lost waiting on instruction fetch
	MemStall      uint64 // cycles lost waiting on data access
	L15Ops        uint64
	DualIssued    uint64 // §3.3 dual-issue groups retired (Width >= 2)
}

// Core is one processor.
type Core struct {
	ID   int
	PC   uint32
	Regs [32]uint32
	Priv Priv

	// Width is the issue width: 1 (default) models the 5-stage in-order
	// core of §2; 2 enables the dual-issue front end of §3.3 (Run then
	// steps through StepDual). MemPorts bounds the memory operations one
	// issue group may carry (1 for a single D$ port; 2 when the L1.5's
	// ported front end of §3.3 is present).
	Width    int
	MemPorts int

	// Cycles is the core-local cycle counter.
	Cycles uint64

	// Halted is set by ebreak (or by the environment).
	Halted bool

	Stats Stats

	mem        MemSystem
	lastLoadRd int // destination of the previous load, -1 if none
}

// New creates a core starting at pc in kernel mode (the reset state).
func New(id int, memsys MemSystem, pc uint32) (*Core, error) {
	if memsys == nil {
		return nil, fmt.Errorf("cpu: nil memory system")
	}
	return &Core{ID: id, PC: pc, Priv: PrivKernel, mem: memsys, lastLoadRd: -1}, nil
}

// NextWakeup implements the kernel wakeup protocol (DESIGN.md §11): a
// running core is runnable at its local clock; a halted core never wakes
// on its own (only the environment can restart it).
func (c *Core) NextWakeup() uint64 {
	if c.Halted {
		return kernel.Never
	}
	return c.Cycles
}

// setReg writes rd, keeping x0 hard-wired to zero.
func (c *Core) setReg(rd int, v uint32) {
	if rd != 0 {
		c.Regs[rd] = v
	}
}

// Step executes one instruction. It returns the trap raised, if any
// (TrapNone otherwise). ECALL and EBREAK return their traps with the PC
// already advanced so a handler can resume at PC. A halted core returns
// immediately.
func (c *Core) Step() (Trap, error) {
	if c.Halted {
		return Trap{}, nil
	}
	pc := c.PC

	inst, fetchLat, trap := c.fetchDecode(pc)
	if trap.Kind != TrapNone {
		c.Halted = true
		return trap, nil
	}
	c.chargeFetch(fetchLat)
	return c.executeDecoded(inst, pc)
}

// fetchDecode reads and decodes the instruction at pc without mutating the
// core (beyond the memory system's own statistics). A trap result reports
// fetch faults and illegal encodings.
func (c *Core) fetchDecode(pc uint32) (isa.Inst, int, Trap) {
	word, fetchLat, err := c.mem.FetchWord(c.ID, pc)
	if err != nil {
		return isa.Inst{}, 0, Trap{Kind: TrapMemFault, PC: pc, Info: err.Error()}
	}
	inst, err := isa.Decode(word)
	if err != nil {
		return isa.Inst{}, 0, Trap{Kind: TrapIllegal, PC: pc, Info: err.Error()}
	}
	return inst, fetchLat, Trap{}
}

func (c *Core) chargeFetch(lat int) {
	if lat > 1 {
		c.Cycles += uint64(lat - 1)
		c.Stats.FetchStall += uint64(lat - 1)
	}
}

// executeDecoded retires one already-fetched instruction.
func (c *Core) executeDecoded(inst isa.Inst, pc uint32) (Trap, error) {
	// Load-use hazard: a consumer directly after a load stalls one cycle
	// (the forwarding paths cover every other producer).
	if c.lastLoadRd > 0 && usesReg(inst, c.lastLoadRd) {
		c.Cycles++
		c.Stats.LoadUseStalls++
	}
	c.lastLoadRd = -1

	c.Cycles++ // pipelined base cost
	c.Stats.Instret++
	next := pc + 4
	rs1 := c.Regs[inst.Rs1]
	rs2 := c.Regs[inst.Rs2]

	switch {
	case inst.Op == isa.OpLUI:
		c.setReg(inst.Rd, uint32(inst.Imm)<<12)
	case inst.Op == isa.OpAUIPC:
		c.setReg(inst.Rd, pc+uint32(inst.Imm)<<12)
	case inst.Op == isa.OpJAL:
		c.setReg(inst.Rd, next)
		next = pc + uint32(inst.Imm)
		c.flush()
	case inst.Op == isa.OpJALR:
		c.setReg(inst.Rd, next)
		next = (rs1 + uint32(inst.Imm)) &^ 1
		c.flush()
	case inst.Op.IsBranch():
		if c.branchTaken(inst, rs1, rs2) {
			next = pc + uint32(inst.Imm)
			c.flush()
		}
	case inst.Op.IsLoad():
		v, lat, err := c.loadValue(inst, rs1)
		if err != nil {
			c.Halted = true
			return Trap{Kind: TrapMemFault, PC: pc, Info: err.Error()}, nil
		}
		c.chargeMem(lat)
		c.setReg(inst.Rd, v)
		c.lastLoadRd = inst.Rd
	case inst.Op.IsStore():
		size := storeSize[inst.Op]
		lat, err := c.mem.Store(c.ID, rs1+uint32(inst.Imm), size, rs2)
		if err != nil {
			c.Halted = true
			return Trap{Kind: TrapMemFault, PC: pc, Info: err.Error()}, nil
		}
		c.chargeMem(lat)
	case inst.Op.IsL15():
		if inst.Op.Privileged() && c.Priv != PrivKernel {
			c.PC = next
			return Trap{Kind: TrapPrivilege, PC: pc,
				Info: "demand requires kernel mode"}, nil
		}
		res, lat, err := c.mem.L15Op(c.ID, inst.Op, rs1)
		if err != nil {
			c.Halted = true
			return Trap{Kind: TrapMemFault, PC: pc, Info: err.Error()}, nil
		}
		c.chargeMem(lat)
		c.Stats.L15Ops++
		if inst.Op == isa.OpSUPPLY || inst.Op == isa.OpGVGET {
			// The L1.5→EX forwarding channel (Fig. 3-d) delivers
			// the result without a hazard stall.
			c.setReg(inst.Rd, res)
		}
	case inst.Op == isa.OpECALL:
		c.PC = next
		return Trap{Kind: TrapECall, PC: pc}, nil
	case inst.Op == isa.OpEBREAK:
		c.PC = next
		c.Halted = true
		return Trap{Kind: TrapEBreak, PC: pc}, nil
	case inst.Op == isa.OpFENCE:
		// Ordering is implicit in this in-order model.
	default:
		c.execALU(inst, rs1, rs2)
	}

	c.PC = next
	return Trap{}, nil
}

// Run steps until the core halts, a non-ecall trap fires, or maxInstrs
// retire. The handler (may be nil) receives ECALL traps; returning false
// halts the core.
func (c *Core) Run(maxInstrs uint64, handler func(*Core, Trap) bool) (Trap, error) {
	for n := uint64(0); n < maxInstrs && !c.Halted; n++ {
		trap, err := c.StepIssue()
		if err != nil {
			return trap, err
		}
		switch trap.Kind {
		case TrapNone:
		case TrapECall:
			if handler == nil || !handler(c, trap) {
				c.Halted = true
				return trap, nil
			}
		default:
			return trap, nil
		}
	}
	return Trap{}, nil
}

// StepIssue advances the core by one issue group: StepDual when the core
// is configured dual-issue (§3.3), Step otherwise.
func (c *Core) StepIssue() (Trap, error) {
	if c.Width >= 2 {
		return c.StepDual()
	}
	return c.Step()
}

// FlushCycles is the IF/ID refill a taken branch or jump costs.
const FlushCycles = 2

func (c *Core) flush() {
	c.Cycles += FlushCycles
	c.Stats.BranchFlushes++
}

func (c *Core) chargeMem(lat int) {
	if lat > 1 {
		c.Cycles += uint64(lat - 1)
		c.Stats.MemStall += uint64(lat - 1)
	}
}

func (c *Core) branchTaken(inst isa.Inst, rs1, rs2 uint32) bool {
	switch inst.Op {
	case isa.OpBEQ:
		return rs1 == rs2
	case isa.OpBNE:
		return rs1 != rs2
	case isa.OpBLT:
		return int32(rs1) < int32(rs2)
	case isa.OpBGE:
		return int32(rs1) >= int32(rs2)
	case isa.OpBLTU:
		return rs1 < rs2
	case isa.OpBGEU:
		return rs1 >= rs2
	default:
		return false // executeDecoded routes only branch ops here
	}
}

// Access widths per memory op, hoisted to package level: building a map
// literal per executed load/store is a heap allocation on the step path.
var (
	storeSize = map[isa.Op]int{isa.OpSB: 1, isa.OpSH: 2, isa.OpSW: 4}
	loadSize  = map[isa.Op]int{
		isa.OpLB: 1, isa.OpLBU: 1, isa.OpLH: 2, isa.OpLHU: 2, isa.OpLW: 4,
	}
)

func (c *Core) loadValue(inst isa.Inst, rs1 uint32) (uint32, int, error) {
	va := rs1 + uint32(inst.Imm)
	size := loadSize[inst.Op]
	v, lat, err := c.mem.Load(c.ID, va, size)
	if err != nil {
		return 0, 0, err
	}
	switch inst.Op {
	case isa.OpLB:
		v = uint32(int32(v<<24) >> 24)
	case isa.OpLH:
		v = uint32(int32(v<<16) >> 16)
	default:
		// OpLBU, OpLHU and OpLW are zero-extended or full-width: no fixup.
	}
	return v, lat, nil
}

func (c *Core) execALU(inst isa.Inst, rs1, rs2 uint32) {
	var v uint32
	switch inst.Op {
	case isa.OpADDI:
		v = rs1 + uint32(inst.Imm)
	case isa.OpSLTI:
		if int32(rs1) < inst.Imm {
			v = 1
		}
	case isa.OpSLTIU:
		if rs1 < uint32(inst.Imm) {
			v = 1
		}
	case isa.OpXORI:
		v = rs1 ^ uint32(inst.Imm)
	case isa.OpORI:
		v = rs1 | uint32(inst.Imm)
	case isa.OpANDI:
		v = rs1 & uint32(inst.Imm)
	case isa.OpSLLI:
		v = rs1 << uint32(inst.Imm)
	case isa.OpSRLI:
		v = rs1 >> uint32(inst.Imm)
	case isa.OpSRAI:
		v = uint32(int32(rs1) >> uint32(inst.Imm))
	case isa.OpADD:
		v = rs1 + rs2
	case isa.OpSUB:
		v = rs1 - rs2
	case isa.OpSLL:
		v = rs1 << (rs2 & 31)
	case isa.OpSLT:
		if int32(rs1) < int32(rs2) {
			v = 1
		}
	case isa.OpSLTU:
		if rs1 < rs2 {
			v = 1
		}
	case isa.OpXOR:
		v = rs1 ^ rs2
	case isa.OpSRL:
		v = rs1 >> (rs2 & 31)
	case isa.OpSRA:
		v = uint32(int32(rs1) >> (rs2 & 31))
	case isa.OpOR:
		v = rs1 | rs2
	case isa.OpAND:
		v = rs1 & rs2
	default:
		// Unreachable: executeDecoded routes only ALU ops here.
	}
	c.setReg(inst.Rd, v)
}

// usesReg reports whether the instruction reads register r.
func usesReg(inst isa.Inst, r int) bool {
	switch {
	case inst.Op == isa.OpLUI || inst.Op == isa.OpAUIPC || inst.Op == isa.OpJAL,
		inst.Op == isa.OpECALL, inst.Op == isa.OpEBREAK, inst.Op == isa.OpFENCE:
		return false
	case inst.Op == isa.OpSUPPLY || inst.Op == isa.OpGVGET:
		return false
	case inst.Op.IsBranch() || inst.Op.IsStore():
		return inst.Rs1 == r || inst.Rs2 == r
	case inst.Op >= isa.OpADD && inst.Op <= isa.OpAND:
		return inst.Rs1 == r || inst.Rs2 == r
	default:
		return inst.Rs1 == r
	}
}
