// Package isa defines the instruction set architecture simulated by this
// repository: a compact 64-bit load/store ISA with an x86-style prefix-byte
// mechanism that encodes SeMPE's secure-execution extensions.
//
// The SeMPE paper (Mondelli et al., DAC 2021) extends x86_64 by reusing the
// 0x2E branch-hint prefix: a conditional branch carrying the prefix becomes a
// Secure Jump (sJMP), and the two-byte sequence prefix+NOP becomes the
// End-of-Secure-Jump (eosJMP) marker. Legacy cores ignore the prefix, so the
// same binary runs unmodified (without security guarantees) on a baseline
// machine. This package reproduces exactly that property: Decode returns the
// same instruction with Secure=true when the prefix is present, and a
// baseline core is free to ignore the flag.
//
// Instruction formats:
//
//	1 byte : NOP, HALT
//	8 bytes: op(1) rd(1) ra(1) rb(1) imm(4, little-endian int32)
//
// A SecPrefix byte (0x2E) may precede any instruction and adds one byte to
// its encoded length.
package isa

import "fmt"

// NumArchRegs is the number of architectural integer registers. The paper
// models 48 architectural registers (AMD64 GPRs + extensions); ArchRS
// snapshots save exactly this set.
const NumArchRegs = 48

// Reg identifies an architectural register, 0 <= Reg < NumArchRegs.
type Reg uint8

// Register conventions used by the assembler and compiler.
const (
	RZ Reg = 0 // hardwired zero
	LR Reg = 1 // link register (JAL/JALR)
	SP Reg = 2 // stack pointer
	// R3..R7 are compiler temporaries; R8..R47 are allocatable.
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case RZ:
		return "rz"
	case LR:
		return "lr"
	case SP:
		return "sp"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// SecPrefix is the byte that marks an instruction as secure. It mirrors the
// paper's reuse of the x86 0x2E static branch-hint prefix: meaningless on a
// baseline core, it turns a branch into sJMP and a NOP into eosJMP on a
// SeMPE core.
const SecPrefix byte = 0x2E

// Op is an opcode. The NOP opcode is 0x90 to mirror the x86 single-byte NOP,
// preserving the paper's "eosJMP = bytes 0x2E,0x90" encoding story.
type Op uint8

// Opcodes. Gaps are reserved; 0x2E is never an opcode (it is the SecPrefix).
const (
	OpInvalid Op = 0x00
	OpHalt    Op = 0x01 // stop execution (1-byte encoding)

	// Register-register ALU: rd = ra <op> rb.
	OpAdd  Op = 0x10
	OpSub  Op = 0x11
	OpMul  Op = 0x12
	OpDiv  Op = 0x13 // signed; div-by-zero yields -1 (non-trapping)
	OpRem  Op = 0x14 // signed; rem-by-zero yields dividend
	OpAnd  Op = 0x15
	OpOr   Op = 0x16
	OpXor  Op = 0x17
	OpShl  Op = 0x18 // shift amount masked to 6 bits
	OpShr  Op = 0x19 // logical
	OpSra  Op = 0x1A // arithmetic
	OpSlt  Op = 0x1B // rd = (ra < rb) ? 1 : 0, signed
	OpSltu Op = 0x1C // unsigned
	OpSeq  Op = 0x1D // rd = (ra == rb) ? 1 : 0

	// Register-immediate ALU: rd = ra <op> imm.
	OpAddi Op = 0x20
	OpMuli Op = 0x21
	OpAndi Op = 0x22
	OpOri  Op = 0x23
	OpXori Op = 0x24
	OpShli Op = 0x25
	OpShri Op = 0x26
	OpSrai Op = 0x27
	OpSlti Op = 0x28
	OpSeqi Op = 0x29
	OpLi   Op = 0x2A // rd = imm (sign-extended 32-bit)

	// Memory: address = ra + imm. LD/ST move 64-bit words; LDB/STB bytes.
	OpLd  Op = 0x30 // rd = Mem64[ra+imm]
	OpSt  Op = 0x31 // Mem64[ra+imm] = rd  (rd is a source)
	OpLdb Op = 0x32 // rd = zext(Mem8[ra+imm])
	OpStb Op = 0x33 // Mem8[ra+imm] = rd&0xFF

	// Control flow. Branch targets are byte offsets relative to the address
	// of the instruction's first byte (including any prefix).
	OpBeq  Op = 0x40 // if ra == rb: pc += imm
	OpBne  Op = 0x41
	OpBlt  Op = 0x42 // signed
	OpBge  Op = 0x43 // signed
	OpBltu Op = 0x44
	OpBgeu Op = 0x45
	OpJmp  Op = 0x48 // pc += imm
	OpJal  Op = 0x49 // rd = next pc; pc += imm
	OpJalr Op = 0x4A // rd = next pc; pc = ra + imm

	// Conditional moves: constant-time selects. CMOV reads rd as a third
	// source so the destination is written unconditionally in the datapath.
	OpCmovz  Op = 0x50 // rd = (ra == 0) ? rb : rd
	OpCmovnz Op = 0x51 // rd = (ra != 0) ? rb : rd

	OpNop Op = 0x90 // 1-byte encoding; SecPrefix+NOP decodes as eosJMP
)

// Class groups opcodes by the functional unit that executes them.
type Class uint8

// Functional-unit classes.
const (
	ClassNone Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional JMP/JAL/JALR
	ClassCMov
	ClassSys // NOP, HALT
)

type opInfo struct {
	name     string
	class    Class
	writesRd bool // rd is a destination
	readsRa  bool
	readsRb  bool
	readsRd  bool // rd is (also) a source (ST, STB, CMOV*)
	short    bool // 1-byte encoding
}

var opTable = map[Op]opInfo{
	OpHalt: {"halt", ClassSys, false, false, false, false, true},
	OpNop:  {"nop", ClassSys, false, false, false, false, true},

	OpAdd:  {"add", ClassALU, true, true, true, false, false},
	OpSub:  {"sub", ClassALU, true, true, true, false, false},
	OpMul:  {"mul", ClassMul, true, true, true, false, false},
	OpDiv:  {"div", ClassDiv, true, true, true, false, false},
	OpRem:  {"rem", ClassDiv, true, true, true, false, false},
	OpAnd:  {"and", ClassALU, true, true, true, false, false},
	OpOr:   {"or", ClassALU, true, true, true, false, false},
	OpXor:  {"xor", ClassALU, true, true, true, false, false},
	OpShl:  {"shl", ClassALU, true, true, true, false, false},
	OpShr:  {"shr", ClassALU, true, true, true, false, false},
	OpSra:  {"sra", ClassALU, true, true, true, false, false},
	OpSlt:  {"slt", ClassALU, true, true, true, false, false},
	OpSltu: {"sltu", ClassALU, true, true, true, false, false},
	OpSeq:  {"seq", ClassALU, true, true, true, false, false},

	OpAddi: {"addi", ClassALU, true, true, false, false, false},
	OpMuli: {"muli", ClassMul, true, true, false, false, false},
	OpAndi: {"andi", ClassALU, true, true, false, false, false},
	OpOri:  {"ori", ClassALU, true, true, false, false, false},
	OpXori: {"xori", ClassALU, true, true, false, false, false},
	OpShli: {"shli", ClassALU, true, true, false, false, false},
	OpShri: {"shri", ClassALU, true, true, false, false, false},
	OpSrai: {"srai", ClassALU, true, true, false, false, false},
	OpSlti: {"slti", ClassALU, true, true, false, false, false},
	OpSeqi: {"seqi", ClassALU, true, true, false, false, false},
	OpLi:   {"li", ClassALU, true, false, false, false, false},

	OpLd:  {"ld", ClassLoad, true, true, false, false, false},
	OpSt:  {"st", ClassStore, false, true, false, true, false},
	OpLdb: {"ldb", ClassLoad, true, true, false, false, false},
	OpStb: {"stb", ClassStore, false, true, false, true, false},

	OpBeq:  {"beq", ClassBranch, false, true, true, false, false},
	OpBne:  {"bne", ClassBranch, false, true, true, false, false},
	OpBlt:  {"blt", ClassBranch, false, true, true, false, false},
	OpBge:  {"bge", ClassBranch, false, true, true, false, false},
	OpBltu: {"bltu", ClassBranch, false, true, true, false, false},
	OpBgeu: {"bgeu", ClassBranch, false, true, true, false, false},
	OpJmp:  {"jmp", ClassJump, false, false, false, false, false},
	OpJal:  {"jal", ClassJump, true, false, false, false, false},
	OpJalr: {"jalr", ClassJump, true, true, false, false, false},

	OpCmovz:  {"cmovz", ClassCMov, true, true, true, true, false},
	OpCmovnz: {"cmovnz", ClassCMov, true, true, true, true, false},
}

// opInfos is opTable flattened into a dense array: opcode helpers sit on the
// simulator's per-fetch/per-rename hot path, and indexing a 256-entry array
// by the opcode byte avoids hashing the map on every call.
var opInfos [256]opInfo

// opValid mirrors opTable membership for the dense array.
var opValid [256]bool

func init() {
	for op, info := range opTable {
		opInfos[op] = info
		opValid[op] = true
	}
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return opValid[op] }

// String returns the assembler mnemonic of the opcode.
func (op Op) String() string {
	if opValid[op] {
		return opInfos[op].name
	}
	return fmt.Sprintf("op(%#02x)", uint8(op))
}

// ClassOf returns the functional-unit class of the opcode.
func (op Op) ClassOf() Class {
	return opInfos[op].class
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op.ClassOf() == ClassBranch }

// IsJump reports whether op is an unconditional control transfer.
func (op Op) IsJump() bool { return op.ClassOf() == ClassJump }

// IsControl reports whether op changes control flow.
func (op Op) IsControl() bool { return op.IsBranch() || op.IsJump() }

// Inst is a decoded instruction.
type Inst struct {
	Op     Op
	Rd     Reg
	Ra     Reg
	Rb     Reg
	Imm    int64 // sign-extended from the 32-bit immediate field
	Secure bool  // carried a SecPrefix byte
}

// IsSJmp reports whether the instruction is a Secure Jump: a conditional
// branch carrying the SecPrefix. On a SeMPE core an sJMP executes both paths.
func (in Inst) IsSJmp() bool { return in.Secure && in.Op.IsBranch() }

// IsEOSJmp reports whether the instruction is an End-of-Secure-Jump marker:
// SecPrefix+NOP. On a baseline core it is just a NOP.
func (in Inst) IsEOSJmp() bool { return in.Secure && in.Op == OpNop }

// WritesRd reports whether the instruction writes its Rd register.
func (in Inst) WritesRd() bool {
	return opInfos[in.Op].writesRd && in.Rd != RZ
}

// SrcRegs appends the architectural source registers of the instruction to
// dst and returns the extended slice. R0 reads are included (they are free in
// the datapath but harmless to track).
func (in Inst) SrcRegs(dst []Reg) []Reg {
	info := opInfos[in.Op]
	if info.readsRa {
		dst = append(dst, in.Ra)
	}
	if info.readsRb {
		dst = append(dst, in.Rb)
	}
	if info.readsRd {
		dst = append(dst, in.Rd)
	}
	return dst
}

// EncodedLen returns the byte length of the instruction's encoding.
func (in Inst) EncodedLen() int {
	n := 8
	if opInfos[in.Op].short {
		n = 1
	}
	if in.Secure {
		n++
	}
	return n
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	prefix := ""
	if in.Secure {
		if in.Op.IsBranch() {
			prefix = "s"
		} else if in.Op == OpNop {
			return "eosjmp"
		} else {
			prefix = "sec."
		}
	}
	info := opTable[in.Op]
	switch {
	case info.short:
		return prefix + info.name
	case in.Op == OpLi:
		return fmt.Sprintf("%s%s %s, %d", prefix, info.name, in.Rd, in.Imm)
	case in.Op.ClassOf() == ClassLoad:
		return fmt.Sprintf("%s%s %s, [%s%+d]", prefix, info.name, in.Rd, in.Ra, in.Imm)
	case in.Op.ClassOf() == ClassStore:
		return fmt.Sprintf("%s%s %s, [%s%+d]", prefix, info.name, in.Rd, in.Ra, in.Imm)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s%s %s, %s, %+d", prefix, info.name, in.Ra, in.Rb, in.Imm)
	case in.Op == OpJmp:
		return fmt.Sprintf("%s%s %+d", prefix, info.name, in.Imm)
	case in.Op == OpJal:
		return fmt.Sprintf("%s%s %s, %+d", prefix, info.name, in.Rd, in.Imm)
	case in.Op == OpJalr:
		return fmt.Sprintf("%s%s %s, %s%+d", prefix, info.name, in.Rd, in.Ra, in.Imm)
	case info.readsRb:
		return fmt.Sprintf("%s%s %s, %s, %s", prefix, info.name, in.Rd, in.Ra, in.Rb)
	default:
		return fmt.Sprintf("%s%s %s, %s, %d", prefix, info.name, in.Rd, in.Ra, in.Imm)
	}
}
