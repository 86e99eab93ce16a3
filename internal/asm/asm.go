// Package asm implements a two-pass text assembler for the simulated ISA,
// plus a programmatic Builder used by the compiler. The syntax is
// line-oriented:
//
//	; comment
//	.data buf 256          ; reserve 256 zero bytes, symbol "buf"
//	.word tbl 1 2 3        ; initialized 64-bit words, symbol "tbl"
//	main:                  ; label
//	    li   r8, 10
//	loop:
//	    addi r8, r8, -1
//	    bne  r8, rz, loop
//	    sbne r8, rz, loop  ; an "s"-prefixed branch assembles as sJMP
//	    eosjmp             ; assembles as SecPrefix+NOP
//	    halt
//
// Data lives between isa.DefaultDataBase and isa.DefaultHeapBase; a
// reservation past that bound fails with ErrDataRegion. .data reserves zero
// bytes without adding a segment to the program image, since memory nothing
// was loaded into reads as zero; .word emits a segment up to its last
// non-zero word.
package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble parses source text and produces a program. The entry point is the
// symbol "main" if defined, otherwise the first instruction.
func Assemble(src string) (*isa.Program, error) {
	b := NewBuilder()
	if err := b.parse(src); err != nil {
		return nil, err
	}
	return b.Finish()
}

// MustAssemble is Assemble, panicking on error; for tests and examples with
// known-good source.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Builder assembles a program incrementally. The compiler targets this API
// directly; the text assembler is a thin parser on top of it.
type Builder struct {
	insts  []isa.Inst
	labels []string // pending label name for branch/jump fixup, "" if none
	// fixups[i] is the symbol the i-th instruction's Imm must be resolved
	// against (pc-relative for control flow, absolute for LI).
	symbols  map[string]uint64
	codeSyms map[string]int // symbol -> instruction index (resolved in Finish)
	data     []isa.Segment
	dataNext uint64
	genLabel int
	err      error

	// immSlots maps a template patch-slot name to the indices of the
	// instructions carrying it (see MarkImmSlot); immSlotOffs is the same
	// map resolved to code byte offsets by Finish.
	immSlots    map[string][]int
	immSlotOffs map[string][]int
}

// NewBuilder returns an empty Builder with the default memory layout.
func NewBuilder() *Builder {
	return &Builder{
		symbols:  make(map[string]uint64),
		codeSyms: make(map[string]int),
		dataNext: isa.DefaultDataBase,
	}
}

// Err returns the first error recorded by emit helpers.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.codeSyms[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	if _, dup := b.symbols[name]; dup {
		b.fail("label %q collides with data symbol", name)
		return
	}
	b.codeSyms[name] = len(b.insts)
}

// FreshLabel returns a unique generated label with the given prefix.
func (b *Builder) FreshLabel(prefix string) string {
	b.genLabel++
	return fmt.Sprintf(".%s_%d", prefix, b.genLabel)
}

// MarkImmSlot tags the most recently emitted instruction as carrying the
// immediate of the named template patch slot. The instruction's code byte
// offset is resolved in Finish and published via ImmSlotOffsets; a name may
// be marked at several instructions.
func (b *Builder) MarkImmSlot(name string) {
	if len(b.insts) == 0 {
		b.fail("MarkImmSlot(%q) before any instruction", name)
		return
	}
	if b.immSlots == nil {
		b.immSlots = make(map[string][]int)
	}
	b.immSlots[name] = append(b.immSlots[name], len(b.insts)-1)
}

// ImmSlotOffsets returns the code byte offset (relative to the code base) of
// the start of every instruction marked with MarkImmSlot, keyed by slot
// name. Valid only after Finish; nil when nothing was marked.
func (b *Builder) ImmSlotOffsets() map[string][]int { return b.immSlotOffs }

// Emit appends a fully-resolved instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.insts = append(b.insts, in)
	b.labels = append(b.labels, "")
}

// EmitRef appends an instruction whose immediate refers to symbol. For
// control-flow opcodes the immediate becomes pc-relative; for others (LI) it
// becomes the symbol's absolute address.
func (b *Builder) EmitRef(in isa.Inst, symbol string) {
	b.insts = append(b.insts, in)
	b.labels = append(b.labels, symbol)
}

// ErrDataRegion reports a data reservation that would run the data region
// past isa.DefaultHeapBase, the next region of the default layout.
var ErrDataRegion = errors.New("data region overflows into the heap")

// Data reserves size zero bytes and returns the symbol's address. The range
// is an address reservation only: it adds no segment to the program image,
// because memory that nothing was loaded into reads as zero.
func (b *Builder) Data(name string, size int) uint64 {
	return b.reserve(name, size, 1)
}

// DataWords reserves n 64-bit words initialized from init (zero past its
// end) and returns the symbol's address. Only init up to its last non-zero
// word becomes a segment; the zeros after it are left to the reservation.
func (b *Builder) DataWords(name string, n int, init []uint64) uint64 {
	if len(init) > n {
		b.fail("data %q: %d initial words for %d reserved", name, len(init), n)
		return 0
	}
	addr := b.reserve(name, n, 8)
	for len(init) > 0 && init[len(init)-1] == 0 {
		init = init[:len(init)-1]
	}
	if b.err != nil || len(init) == 0 {
		return addr
	}
	bytes := make([]byte, 8*len(init))
	for i, w := range init {
		binary.LittleEndian.PutUint64(bytes[8*i:], w)
	}
	b.data = append(b.data, isa.Segment{Base: addr, Bytes: bytes})
	return addr
}

// reserve claims n elements of elem bytes at the next data address for
// symbol name (anonymous when empty) and returns that address. Ranges stay
// 64-byte aligned so distinct arrays never share a cache line, which keeps
// shadow-copy locality effects interpretable. A range that would end past
// isa.DefaultHeapBase fails with ErrDataRegion.
func (b *Builder) reserve(name string, n int, elem uint64) uint64 {
	addr := b.dataNext
	if n < 0 || uint64(n) > (isa.DefaultHeapBase-addr)/elem {
		b.fail("data %q: %d*%d bytes at %#x: %w", name, n, elem, addr, ErrDataRegion)
		return 0
	}
	if name != "" {
		if _, dup := b.symbols[name]; dup {
			b.fail("duplicate data symbol %q", name)
			return 0
		}
		b.symbols[name] = addr
	}
	b.dataNext = (addr + uint64(n)*elem + 63) &^ 63
	return addr
}

// SymbolAddr returns the address of a data symbol defined so far.
func (b *Builder) SymbolAddr(name string) (uint64, bool) {
	a, ok := b.symbols[name]
	return a, ok
}

// Finish lays out the code, resolves label references, and returns the
// program.
func (b *Builder) Finish() (*isa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	// First pass: compute the byte offset of every instruction.
	offsets := make([]int, len(b.insts)+1)
	off := 0
	for i, in := range b.insts {
		offsets[i] = off
		off += in.EncodedLen()
	}
	offsets[len(b.insts)] = off

	if len(b.immSlots) > 0 {
		b.immSlotOffs = make(map[string][]int, len(b.immSlots))
		for name, idxs := range b.immSlots {
			offs := make([]int, len(idxs))
			for i, idx := range idxs {
				offs[i] = offsets[idx]
			}
			b.immSlotOffs[name] = offs
		}
	}

	base := isa.DefaultCodeBase
	syms := make(map[string]uint64, len(b.symbols)+len(b.codeSyms))
	for name, addr := range b.symbols {
		syms[name] = addr
	}
	for name, idx := range b.codeSyms {
		syms[name] = base + uint64(offsets[idx])
	}

	// Second pass: resolve references and encode.
	code := make([]byte, 0, off)
	for i, in := range b.insts {
		if label := b.labels[i]; label != "" {
			target, ok := syms[label]
			if !ok {
				return nil, fmt.Errorf("asm: undefined symbol %q", label)
			}
			if in.Op.IsControl() {
				in.Imm = int64(target) - int64(base+uint64(offsets[i]))
			} else {
				in.Imm = int64(target)
			}
		}
		var err error
		code, err = isa.Encode(code, in)
		if err != nil {
			return nil, fmt.Errorf("asm: instruction %d (%v): %w", i, in, err)
		}
	}

	entry := base
	if e, ok := syms["main"]; ok {
		entry = e
	}
	return &isa.Program{
		CodeBase: base,
		Code:     code,
		Entry:    entry,
		Data:     b.data,
		Symbols:  syms,
	}, nil
}

// parse implements the text syntax on top of the Builder.
func (b *Builder) parse(src string) error {
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := b.parseLine(line); err != nil {
			return fmt.Errorf("asm: line %d: %w", lineNo+1, err)
		}
	}
	return b.err
}

func (b *Builder) parseLine(line string) error {
	if strings.HasPrefix(line, ".") {
		return b.parseDirective(line)
	}
	if strings.HasSuffix(line, ":") {
		name := strings.TrimSuffix(line, ":")
		if name == "" {
			return fmt.Errorf("empty label")
		}
		b.Label(name)
		return b.err
	}
	return b.parseInst(line)
}

func (b *Builder) parseDirective(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".data":
		if len(fields) != 3 {
			return fmt.Errorf("usage: .data name size")
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil || size < 0 {
			return fmt.Errorf("bad size %q", fields[2])
		}
		b.Data(fields[1], size)
		return b.err
	case ".word":
		if len(fields) < 3 {
			return fmt.Errorf("usage: .word name v0 [v1 ...]")
		}
		words := make([]uint64, 0, len(fields)-2)
		for _, f := range fields[2:] {
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return fmt.Errorf("bad word %q", f)
			}
			words = append(words, uint64(v))
		}
		b.DataWords(fields[1], len(words), words)
		return b.err
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

var mnemonics = map[string]isa.Op{
	"nop": isa.OpNop, "halt": isa.OpHalt,
	"add": isa.OpAdd, "sub": isa.OpSub, "mul": isa.OpMul, "div": isa.OpDiv,
	"rem": isa.OpRem, "and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor,
	"shl": isa.OpShl, "shr": isa.OpShr, "sra": isa.OpSra,
	"slt": isa.OpSlt, "sltu": isa.OpSltu, "seq": isa.OpSeq,
	"addi": isa.OpAddi, "muli": isa.OpMuli, "andi": isa.OpAndi,
	"ori": isa.OpOri, "xori": isa.OpXori, "shli": isa.OpShli,
	"shri": isa.OpShri, "srai": isa.OpSrai, "slti": isa.OpSlti,
	"seqi": isa.OpSeqi, "li": isa.OpLi,
	"ld": isa.OpLd, "st": isa.OpSt, "ldb": isa.OpLdb, "stb": isa.OpStb,
	"beq": isa.OpBeq, "bne": isa.OpBne, "blt": isa.OpBlt, "bge": isa.OpBge,
	"bltu": isa.OpBltu, "bgeu": isa.OpBgeu,
	"jmp": isa.OpJmp, "jal": isa.OpJal, "jalr": isa.OpJalr,
	"cmovz": isa.OpCmovz, "cmovnz": isa.OpCmovnz,
}

func (b *Builder) parseInst(line string) error {
	mnem, rest, _ := strings.Cut(line, " ")
	mnem = strings.ToLower(mnem)
	secure := false
	if mnem == "eosjmp" {
		b.Emit(isa.Inst{Op: isa.OpNop, Secure: true})
		return nil
	}
	op, ok := mnemonics[mnem]
	if !ok && strings.HasPrefix(mnem, "s") {
		// "s"-prefixed branch mnemonics assemble the SecPrefix: sbeq, sbne...
		if bop, ok2 := mnemonics[mnem[1:]]; ok2 && bop.IsBranch() {
			op, ok, secure = bop, true, true
		}
	}
	if !ok {
		// Pseudo-instructions.
		switch mnem {
		case "mov": // mov rd, ra  ->  add rd, ra, rz
			ops, err := splitOperands(rest, 2)
			if err != nil {
				return err
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return err
			}
			ra, err := parseReg(ops[1])
			if err != nil {
				return err
			}
			b.Emit(isa.Inst{Op: isa.OpAdd, Rd: rd, Ra: ra, Rb: isa.RZ})
			return nil
		case "la": // la rd, symbol  ->  li rd, addr(symbol)
			ops, err := splitOperands(rest, 2)
			if err != nil {
				return err
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return err
			}
			b.EmitRef(isa.Inst{Op: isa.OpLi, Rd: rd}, ops[1])
			return nil
		case "ret": // ret -> jalr rz, lr+0
			b.Emit(isa.Inst{Op: isa.OpJalr, Rd: isa.RZ, Ra: isa.LR})
			return nil
		case "call": // call label -> jal lr, label
			ops, err := splitOperands(rest, 1)
			if err != nil {
				return err
			}
			b.EmitRef(isa.Inst{Op: isa.OpJal, Rd: isa.LR}, ops[0])
			return nil
		}
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}

	in := isa.Inst{Op: op, Secure: secure}
	info := op.ClassOf()
	switch {
	case op == isa.OpNop || op == isa.OpHalt:
		b.Emit(in)
		return nil
	case op == isa.OpLi:
		ops, err := splitOperands(rest, 2)
		if err != nil {
			return err
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if imm, err2 := strconv.ParseInt(ops[1], 0, 64); err2 == nil {
			in.Imm = imm
			b.Emit(in)
		} else {
			b.EmitRef(in, ops[1]) // li rd, symbol
		}
		return nil
	case info == isa.ClassLoad || info == isa.ClassStore:
		// ld rd, [ra+imm] / st rd, [ra+imm]
		ops, err := splitOperands(rest, 2)
		if err != nil {
			return err
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Ra, in.Imm, err = parseMemOperand(ops[1]); err != nil {
			return err
		}
		b.Emit(in)
		return nil
	case op.IsBranch():
		ops, err := splitOperands(rest, 3)
		if err != nil {
			return err
		}
		if in.Ra, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Rb, err = parseReg(ops[1]); err != nil {
			return err
		}
		b.EmitRef(in, ops[2])
		return nil
	case op == isa.OpJmp:
		ops, err := splitOperands(rest, 1)
		if err != nil {
			return err
		}
		b.EmitRef(in, ops[0])
		return nil
	case op == isa.OpJal:
		ops, err := splitOperands(rest, 2)
		if err != nil {
			return err
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		b.EmitRef(in, ops[1])
		return nil
	case op == isa.OpJalr:
		ops, err := splitOperands(rest, 2)
		if err != nil {
			return err
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Ra, in.Imm, err = parseMemOperand(ops[1]); err != nil {
			if in.Ra, err = parseReg(ops[1]); err != nil {
				return err
			}
			in.Imm = 0
		}
		b.Emit(in)
		return nil
	default:
		// Three-operand ALU / CMOV: rd, ra, rb  or  rd, ra, imm.
		ops, err := splitOperands(rest, 3)
		if err != nil {
			return err
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Ra, err = parseReg(ops[1]); err != nil {
			return err
		}
		if rb, err2 := parseReg(ops[2]); err2 == nil {
			in.Rb = rb
		} else if imm, err3 := strconv.ParseInt(ops[2], 0, 64); err3 == nil {
			in.Imm = imm
		} else {
			return fmt.Errorf("bad operand %q", ops[2])
		}
		b.Emit(in)
		return nil
	}
}

func splitOperands(s string, n int) ([]string, error) {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	if len(parts) != n || (n > 0 && parts[0] == "") {
		return nil, fmt.Errorf("expected %d operands in %q", n, s)
	}
	return parts, nil
}

func parseReg(s string) (isa.Reg, error) {
	switch strings.ToLower(s) {
	case "rz", "r0":
		return isa.RZ, nil
	case "lr", "r1":
		return isa.LR, nil
	case "sp", "r2":
		return isa.SP, nil
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'R') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumArchRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// parseMemOperand parses "[ra+imm]", "[ra-imm]", or "[ra]".
func parseMemOperand(s string) (isa.Reg, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, err := parseReg(strings.TrimSpace(inner))
		return r, 0, err
	}
	r, err := parseReg(strings.TrimSpace(inner[:sep]))
	if err != nil {
		return 0, 0, err
	}
	imm, err := strconv.ParseInt(strings.TrimSpace(inner[sep:]), 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, imm, nil
}
