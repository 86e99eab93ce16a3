package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Segment is a contiguous range of initialized memory. A program image
// carries only initialized bytes: zero-filled data is an address range with
// no segment, because memory the image does not cover reads as zero.
type Segment struct {
	Base  uint64
	Bytes []byte
}

// Program is a loadable binary image: code, initialized data, and symbols.
type Program struct {
	CodeBase uint64 // address of Code[0]
	Code     []byte
	Entry    uint64            // initial program counter
	Data     []Segment         // initialized data segments
	Symbols  map[string]uint64 // label -> address
}

// Default memory layout used by the assembler and compiler. The layout keeps
// code, data, shadow copies, and the stack in disjoint regions of a 4 GiB
// window so that cache index bits exercise realistic distributions. The
// assembler keeps data in [DefaultDataBase, DefaultHeapBase).
const (
	DefaultCodeBase  uint64 = 0x0000_1000
	DefaultDataBase  uint64 = 0x0010_0000 // 1 MiB
	DefaultStackTop  uint64 = 0x0800_0000 // 128 MiB, grows down
	DefaultHeapBase  uint64 = 0x0100_0000 // 16 MiB
	DefaultShadowOff uint64 = 0x0400_0000 // shadow copies live data+64 MiB
)

// Sym returns the address of a symbol, panicking if undefined. Intended for
// tests and harness code operating on known-good programs.
func (p *Program) Sym(name string) uint64 {
	addr, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: undefined symbol %q", name))
	}
	return addr
}

// CodeEnd returns the address one past the last code byte.
func (p *Program) CodeEnd() uint64 { return p.CodeBase + uint64(len(p.Code)) }

// Disassemble renders the program's code section, one instruction per line,
// annotated with addresses and any symbols that point at them.
func (p *Program) Disassemble() string {
	type sym struct {
		addr uint64
		name string
	}
	var syms []sym
	for name, addr := range p.Symbols {
		syms = append(syms, sym{addr, name})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].addr != syms[j].addr {
			return syms[i].addr < syms[j].addr
		}
		return syms[i].name < syms[j].name
	})
	var b strings.Builder
	si := 0
	for off := 0; off < len(p.Code); {
		addr := p.CodeBase + uint64(off)
		for si < len(syms) && syms[si].addr <= addr {
			if syms[si].addr == addr {
				fmt.Fprintf(&b, "%s:\n", syms[si].name)
			}
			si++
		}
		in, size, err := Decode(p.Code, off)
		if err != nil {
			fmt.Fprintf(&b, "  %08x: .byte %#02x ; %v\n", addr, p.Code[off], err)
			off++
			continue
		}
		fmt.Fprintf(&b, "  %08x: %s\n", addr, in)
		off += size
	}
	return b.String()
}

// CountSecure returns the number of sJMP and eosJMP instructions in the
// program, a quick sanity check that secure instrumentation was emitted.
func (p *Program) CountSecure() (sjmp, eosjmp int) {
	for off := 0; off < len(p.Code); {
		in, size, err := Decode(p.Code, off)
		if err != nil {
			off++
			continue
		}
		if in.IsSJmp() {
			sjmp++
		}
		if in.IsEOSJmp() {
			eosjmp++
		}
		off += size
	}
	return sjmp, eosjmp
}
