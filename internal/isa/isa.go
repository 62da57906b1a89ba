// Package isa defines the instruction set of the simulated cores: the
// RV32I base subset the evaluation programs need, extended with the five
// L1.5 Cache instructions of Table 1:
//
//	demand rs1  (privileged) apply rs1 ways from the L1.5 Cache
//	supply rd               return the assigned ways (bitmap) in rd
//	gv_set rs1               set owned ways' global visibility (bitmap)
//	gv_get rd               return owned ways' global visibility in rd
//	ip_set rs1               set the inclusion policy of owned ways (bitmap)
//
// The extension occupies the RISC-V custom-0 opcode (0001011) with funct3
// selecting the operation, so a conventional decoder passes the words
// through untouched and the Mini-Decoder at the MA stage (§2.2) routes them
// to the L1.5 control port.
package isa

import "fmt"

// Op enumerates the supported operations.
type Op int

// Base RV32I operations plus the L1.5 extension.
const (
	OpInvalid Op = iota

	// U-type
	OpLUI
	OpAUIPC

	// Jumps
	OpJAL
	OpJALR

	// Branches
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Loads
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU

	// Stores
	OpSB
	OpSH
	OpSW

	// Immediate ALU
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI

	// Register ALU
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND

	// System
	OpFENCE
	OpECALL
	OpEBREAK

	// L1.5 Cache extension (Table 1)
	OpDEMAND
	OpSUPPLY
	OpGVSET
	OpGVGET
	OpIPSET
)

var opNames = map[Op]string{
	OpLUI: "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpFENCE: "fence", OpECALL: "ecall", OpEBREAK: "ebreak",
	OpDEMAND: "demand", OpSUPPLY: "supply", OpGVSET: "gv_set",
	OpGVGET: "gv_get", OpIPSET: "ip_set",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsL15 reports whether the operation belongs to the L1.5 extension — the
// test the Mini-Decoder applies at the MA stage.
func (o Op) IsL15() bool {
	switch o {
	case OpDEMAND, OpSUPPLY, OpGVSET, OpGVGET, OpIPSET:
		return true
	default:
		return false
	}
}

// Privileged reports whether the instruction requires kernel mode. Only
// demand() is privileged (Table 1): way allocation can cause contention
// between cores, so it is reserved for the OS/hypervisor.
func (o Op) Privileged() bool { return o == OpDEMAND }

// IsLoad reports memory loads.
func (o Op) IsLoad() bool { return o >= OpLB && o <= OpLHU }

// IsStore reports memory stores.
func (o Op) IsStore() bool { return o >= OpSB && o <= OpSW }

// IsBranch reports conditional branches.
func (o Op) IsBranch() bool { return o >= OpBEQ && o <= OpBGEU }

// Inst is a decoded instruction.
type Inst struct {
	Op           Op
	Rd, Rs1, Rs2 int
	Imm          int32
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch {
	case i.Op == OpInvalid:
		return "invalid"
	case i.Op == OpLUI || i.Op == OpAUIPC:
		return fmt.Sprintf("%s x%d, %d", i.Op, i.Rd, i.Imm)
	case i.Op == OpJAL:
		return fmt.Sprintf("%s x%d, %d", i.Op, i.Rd, i.Imm)
	case i.Op == OpJALR:
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op.IsStore():
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == OpECALL || i.Op == OpEBREAK || i.Op == OpFENCE:
		return i.Op.String()
	case i.Op == OpDEMAND || i.Op == OpGVSET || i.Op == OpIPSET:
		return fmt.Sprintf("%s x%d", i.Op, i.Rs1)
	case i.Op == OpSUPPLY || i.Op == OpGVGET:
		return fmt.Sprintf("%s x%d", i.Op, i.Rd)
	case i.Op >= OpADDI && i.Op <= OpSRAI:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// RISC-V opcode fields.
const (
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcBranch = 0b1100011
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcOpImm  = 0b0010011
	opcOp     = 0b0110011
	opcFence  = 0b0001111
	opcSystem = 0b1110011

	// Custom-0: the L1.5 extension.
	opcL15 = 0b0001011
)

// funct3 selectors of the L1.5 extension.
const (
	f3Demand = 0
	f3Supply = 1
	f3GVSet  = 2
	f3GVGet  = 3
	f3IPSet  = 4
)

// Encode produces the 32-bit machine word.
func Encode(i Inst) (uint32, error) {
	rd := uint32(i.Rd) & 31
	rs1 := uint32(i.Rs1) & 31
	rs2 := uint32(i.Rs2) & 31
	if i.Rd < 0 || i.Rd > 31 || i.Rs1 < 0 || i.Rs1 > 31 || i.Rs2 < 0 || i.Rs2 > 31 {
		return 0, fmt.Errorf("isa: register out of range in %v", i)
	}
	uimm := uint32(i.Imm)
	switch i.Op {
	case OpLUI:
		return uimm<<12 | rd<<7 | opcLUI, nil
	case OpAUIPC:
		return uimm<<12 | rd<<7 | opcAUIPC, nil
	case OpJAL:
		if err := checkImm(i.Imm, 21, 2); err != nil {
			return 0, err
		}
		return jImm(uimm) | rd<<7 | opcJAL, nil
	case OpJALR:
		if err := checkImm(i.Imm, 12, 1); err != nil {
			return 0, err
		}
		return iType(uimm, rs1, 0, rd, opcJALR), nil
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		if err := checkImm(i.Imm, 13, 2); err != nil {
			return 0, err
		}
		f3 := map[Op]uint32{OpBEQ: 0, OpBNE: 1, OpBLT: 4, OpBGE: 5, OpBLTU: 6, OpBGEU: 7}[i.Op]
		return bImm(uimm) | rs2<<20 | rs1<<15 | f3<<12 | opcBranch, nil
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		if err := checkImm(i.Imm, 12, 1); err != nil {
			return 0, err
		}
		f3 := map[Op]uint32{OpLB: 0, OpLH: 1, OpLW: 2, OpLBU: 4, OpLHU: 5}[i.Op]
		return iType(uimm, rs1, f3, rd, opcLoad), nil
	case OpSB, OpSH, OpSW:
		if err := checkImm(i.Imm, 12, 1); err != nil {
			return 0, err
		}
		f3 := map[Op]uint32{OpSB: 0, OpSH: 1, OpSW: 2}[i.Op]
		return (uimm>>5&0x7f)<<25 | rs2<<20 | rs1<<15 | f3<<12 | (uimm&0x1f)<<7 | opcStore, nil
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI:
		if err := checkImm(i.Imm, 12, 1); err != nil {
			return 0, err
		}
		f3 := map[Op]uint32{OpADDI: 0, OpSLTI: 2, OpSLTIU: 3, OpXORI: 4, OpORI: 6, OpANDI: 7}[i.Op]
		return iType(uimm, rs1, f3, rd, opcOpImm), nil
	case OpSLLI, OpSRLI, OpSRAI:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("isa: shift amount %d out of range", i.Imm)
		}
		f3 := map[Op]uint32{OpSLLI: 1, OpSRLI: 5, OpSRAI: 5}[i.Op]
		hi := uint32(0)
		if i.Op == OpSRAI {
			hi = 0x20 << 25
		}
		return hi | uimm<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOpImm, nil
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND:
		f3 := map[Op]uint32{OpADD: 0, OpSUB: 0, OpSLL: 1, OpSLT: 2, OpSLTU: 3,
			OpXOR: 4, OpSRL: 5, OpSRA: 5, OpOR: 6, OpAND: 7}[i.Op]
		f7 := uint32(0)
		if i.Op == OpSUB || i.Op == OpSRA {
			f7 = 0x20
		}
		return f7<<25 | rs2<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOp, nil
	case OpFENCE:
		return opcFence, nil
	case OpECALL:
		return opcSystem, nil
	case OpEBREAK:
		return 1<<20 | opcSystem, nil
	case OpDEMAND:
		return iType(0, rs1, f3Demand, 0, opcL15), nil
	case OpSUPPLY:
		return iType(0, 0, f3Supply, rd, opcL15), nil
	case OpGVSET:
		return iType(0, rs1, f3GVSet, 0, opcL15), nil
	case OpGVGET:
		return iType(0, 0, f3GVGet, rd, opcL15), nil
	case OpIPSET:
		return iType(0, rs1, f3IPSet, 0, opcL15), nil
	default:
		return 0, fmt.Errorf("isa: cannot encode %v", i.Op)
	}
}

func iType(imm, rs1, f3, rd uint32, opc uint32) uint32 {
	return (imm&0xfff)<<20 | rs1<<15 | f3<<12 | rd<<7 | opc
}

func jImm(imm uint32) uint32 {
	return (imm>>20&1)<<31 | (imm>>1&0x3ff)<<21 | (imm>>11&1)<<20 | (imm >> 12 & 0xff << 12)
}

func bImm(imm uint32) uint32 {
	return (imm>>12&1)<<31 | (imm>>5&0x3f)<<25 | (imm>>1&0xf)<<8 | (imm>>11&1)<<7
}

func checkImm(imm int32, bits, align int) error {
	min := -(int32(1) << (bits - 1))
	max := int32(1)<<(bits-1) - 1
	if imm < min || imm > max {
		return fmt.Errorf("isa: immediate %d outside %d-bit range", imm, bits)
	}
	if align > 1 && imm%int32(align) != 0 {
		return fmt.Errorf("isa: immediate %d not %d-byte aligned", imm, align)
	}
	return nil
}

// funct-to-op decode tables, hoisted to package level: Decode runs once
// per fetched instruction, and a map literal per call is a heap
// allocation on the fetch hot path.
var (
	decBranch = map[uint32]Op{0: OpBEQ, 1: OpBNE, 4: OpBLT, 5: OpBGE, 6: OpBLTU, 7: OpBGEU}
	decLoad   = map[uint32]Op{0: OpLB, 1: OpLH, 2: OpLW, 4: OpLBU, 5: OpLHU}
	decStore  = map[uint32]Op{0: OpSB, 1: OpSH, 2: OpSW}
	decALU    = map[uint32]Op{
		0<<3 | 0: OpADD, 0x20<<3 | 0: OpSUB,
		0<<3 | 1: OpSLL, 0<<3 | 2: OpSLT, 0<<3 | 3: OpSLTU,
		0<<3 | 4: OpXOR, 0<<3 | 5: OpSRL, 0x20<<3 | 5: OpSRA,
		0<<3 | 6: OpOR, 0<<3 | 7: OpAND,
	}
)

// Decode interprets a 32-bit machine word.
func Decode(w uint32) (Inst, error) {
	opc := w & 0x7f
	rd := int(w >> 7 & 31)
	f3 := w >> 12 & 7
	rs1 := int(w >> 15 & 31)
	rs2 := int(w >> 20 & 31)
	f7 := w >> 25

	signExt := func(v uint32, bits uint) int32 {
		shift := 32 - bits
		return int32(v<<shift) >> shift
	}
	iImm := signExt(w>>20, 12)

	switch opc {
	case opcLUI:
		return Inst{Op: OpLUI, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcAUIPC:
		return Inst{Op: OpAUIPC, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcJAL:
		imm := (w>>31&1)<<20 | (w>>12&0xff)<<12 | (w>>20&1)<<11 | (w >> 21 & 0x3ff << 1)
		return Inst{Op: OpJAL, Rd: rd, Imm: signExt(imm, 21)}, nil
	case opcJALR:
		if f3 != 0 {
			//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
			return Inst{}, fmt.Errorf("isa: bad jalr funct3 %d", f3)
		}
		return Inst{Op: OpJALR, Rd: rd, Rs1: rs1, Imm: iImm}, nil
	case opcBranch:
		imm := (w>>31&1)<<12 | (w>>7&1)<<11 | (w>>25&0x3f)<<5 | (w >> 8 & 0xf << 1)
		op, ok := decBranch[f3]
		if !ok {
			//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
			return Inst{}, fmt.Errorf("isa: bad branch funct3 %d", f3)
		}
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExt(imm, 13)}, nil
	case opcLoad:
		op, ok := decLoad[f3]
		if !ok {
			//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
			return Inst{}, fmt.Errorf("isa: bad load funct3 %d", f3)
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: iImm}, nil
	case opcStore:
		op, ok := decStore[f3]
		if !ok {
			//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
			return Inst{}, fmt.Errorf("isa: bad store funct3 %d", f3)
		}
		imm := signExt(w>>25<<5|w>>7&0x1f, 12)
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm}, nil
	case opcOpImm:
		switch f3 {
		case 0:
			return Inst{Op: OpADDI, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 2:
			return Inst{Op: OpSLTI, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 3:
			return Inst{Op: OpSLTIU, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 4:
			return Inst{Op: OpXORI, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 6:
			return Inst{Op: OpORI, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 7:
			return Inst{Op: OpANDI, Rd: rd, Rs1: rs1, Imm: iImm}, nil
		case 1:
			return Inst{Op: OpSLLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case 5:
			if f7 == 0x20 {
				return Inst{Op: OpSRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			}
			return Inst{Op: OpSRLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		}
	case opcOp:
		op, ok := decALU[f7<<3|f3]
		if !ok {
			//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
			return Inst{}, fmt.Errorf("isa: bad OP funct %#x/%d", f7, f3)
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
	case opcFence:
		return Inst{Op: OpFENCE}, nil
	case opcSystem:
		switch w >> 20 {
		case 0:
			return Inst{Op: OpECALL}, nil
		case 1:
			return Inst{Op: OpEBREAK}, nil
		}
		//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
		return Inst{}, fmt.Errorf("isa: unsupported system instruction %#x", w)
	case opcL15:
		switch f3 {
		case f3Demand:
			return Inst{Op: OpDEMAND, Rs1: rs1}, nil
		case f3Supply:
			return Inst{Op: OpSUPPLY, Rd: rd}, nil
		case f3GVSet:
			return Inst{Op: OpGVSET, Rs1: rs1}, nil
		case f3GVGet:
			return Inst{Op: OpGVGET, Rd: rd}, nil
		case f3IPSet:
			return Inst{Op: OpIPSET, Rs1: rs1}, nil
		}
		//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
		return Inst{}, fmt.Errorf("isa: bad L1.5 funct3 %d", f3)
	}
	//lint:ignore hotalloc illegal-instruction fault: the error is built only on an undecodable word, which raises an illegal-instruction trap
	return Inst{}, fmt.Errorf("isa: cannot decode %#08x", w)
}
