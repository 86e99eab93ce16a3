package asm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

func TestAssembleAndRunLoop(t *testing.T) {
	prog, err := Assemble(`
		; sum 1..10 into r8
		main:
			li   r8, 0
			li   r9, 10
		loop:
			add  r8, r8, r9
			addi r9, r9, -1
			bne  r9, rz, loop
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(emu.Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[8] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[8])
	}
}

func TestAssembleDataAndMemory(t *testing.T) {
	prog, err := Assemble(`
		.word tbl 5 6 7
		.data buf 64
		main:
			la  r8, tbl
			ld  r9, [r8+8]     ; 6
			la  r10, buf
			st  r9, [r10+0]
			ldb r11, [r10+0]   ; low byte of 6
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(emu.Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[9] != 6 || m.Regs[11] != 6 {
		t.Errorf("r9=%d r11=%d, want 6 6", m.Regs[9], m.Regs[11])
	}
	if got := m.Mem.Read64(prog.Sym("buf")); got != 6 {
		t.Errorf("buf = %d, want 6", got)
	}
}

func TestAssembleCallRet(t *testing.T) {
	prog, err := Assemble(`
		main:
			li   r8, 21
			call double
			halt
		double:
			add  r8, r8, r8
			ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(emu.Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[8] != 42 {
		t.Errorf("r8 = %d, want 42", m.Regs[8])
	}
}

func TestSecureMnemonics(t *testing.T) {
	prog, err := Assemble(`
		main:
			li    r8, 1
			sbne  r8, rz, taken
			addi  r9, r9, 1   ; NT path
			jmp   join
		taken:
			addi  r10, r10, 1 ; T path
		join:
			eosjmp
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	sjmp, eos := prog.CountSecure()
	if sjmp != 1 || eos != 1 {
		t.Fatalf("CountSecure = %d,%d want 1,1", sjmp, eos)
	}
	// Legacy execution takes only the true path.
	leg := emu.New(emu.Legacy, prog)
	if err := leg.Run(); err != nil {
		t.Fatal(err)
	}
	if leg.Regs[9] != 0 || leg.Regs[10] != 1 {
		t.Errorf("legacy: r9=%d r10=%d, want 0 1", leg.Regs[9], leg.Regs[10])
	}
	// SeMPE executes both paths but restores the registers so the final
	// state matches the true path.
	sec := emu.New(emu.SeMPE, prog)
	if err := sec.Run(); err != nil {
		t.Fatal(err)
	}
	if sec.Regs[9] != 0 || sec.Regs[10] != 1 {
		t.Errorf("sempe: r9=%d r10=%d, want 0 1", sec.Regs[9], sec.Regs[10])
	}
	if sec.Insts <= leg.Insts {
		t.Errorf("sempe executed %d insts, legacy %d: dual-path should execute more", sec.Insts, leg.Insts)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"bogus r1, r2, r3",
		"add r1, r2",
		"add r99, r2, r3",
		"ld r1, r2",
		"beq r1, r2, nowhere\nhalt",
		"main:\nmain:\nhalt",
		".data x notanumber",
		".word",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	prog := MustAssemble(`
		main:
			li r8, 7
			sbne r8, rz, t
			jmp j
		t:
			nop
		j:
			eosjmp
			halt
	`)
	dis := prog.Disassemble()
	for _, want := range []string{"sbne", "eosjmp", "halt", "main:"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestBuilderDataAlignment(t *testing.T) {
	b := NewBuilder()
	a1 := b.Data("a", 10)
	a2 := b.Data("b", 10)
	if a1%64 != 0 || a2%64 != 0 {
		t.Errorf("data not 64-byte aligned: %#x %#x", a1, a2)
	}
	if a2 <= a1 {
		t.Errorf("segments overlap: %#x %#x", a1, a2)
	}
}

// TestDataRegionBound: a reservation that would run the data region past
// isa.DefaultHeapBase, or overflow computing its end, is a named error, not
// a panic or a silently wrapped address. The data region is 15 MiB, so a
// 16 MiB buffer can never fit.
func TestDataRegionBound(t *testing.T) {
	region := int(isa.DefaultHeapBase - isa.DefaultDataBase)
	for _, src := range []string{
		".data buf 9223372036854775807\nmain:\n halt\n",
		".data buf 16777216\nmain:\n halt\n",
		fmt.Sprintf(".data buf %d\nmain:\n halt\n", region+1),
		fmt.Sprintf(".word w 1\n.data buf %d\nmain:\n halt\n", region-63),
		fmt.Sprintf(".data buf %d\n.data one 1\nmain:\n halt\n", region),
	} {
		if _, err := Assemble(src); !errors.Is(err, ErrDataRegion) {
			t.Errorf("Assemble(%.40q) = %v, want ErrDataRegion", src, err)
		}
	}

	// The whole region fits, ending exactly at the heap base.
	prog, err := Assemble(fmt.Sprintf(".word w 1\n.data buf %d\nmain:\n halt\n", region-64))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.Sym("buf"), isa.DefaultDataBase+64; got != want {
		t.Errorf("buf at %#x, want %#x", got, want)
	}

	b := NewBuilder()
	b.Data("neg", -1)
	if !errors.Is(b.Err(), ErrDataRegion) {
		t.Errorf("Data(-1) error = %v, want ErrDataRegion", b.Err())
	}
	b = NewBuilder()
	b.DataWords("words", region/8+1, []uint64{1})
	if !errors.Is(b.Err(), ErrDataRegion) {
		t.Errorf("DataWords past the region: error = %v, want ErrDataRegion", b.Err())
	}
}

// TestDataReservesWithoutSegment: .data and zero words add address space
// but no image bytes, and .word stops its segment at the last non-zero word.
// The layout is unchanged: every range still starts 64-byte aligned right
// after the previous one's full size.
func TestDataReservesWithoutSegment(t *testing.T) {
	prog := MustAssemble(`
		.data buf 100
		.word tbl 5 0 7 0 0
		.word zeros 0 0
		.data tail 8
		main:
			halt
	`)
	base := isa.DefaultDataBase
	for name, want := range map[string]uint64{
		"buf": base, "tbl": base + 128, "zeros": base + 192, "tail": base + 256,
	} {
		if got := prog.Sym(name); got != want {
			t.Errorf("%s at %#x, want %#x", name, got, want)
		}
	}
	if len(prog.Data) != 1 {
		t.Fatalf("%d segments, want 1 (tbl)", len(prog.Data))
	}
	seg := prog.Data[0]
	want := []byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}
	if seg.Base != prog.Sym("tbl") || string(seg.Bytes) != string(want) {
		t.Errorf("segment %#x % x, want %#x % x", seg.Base, seg.Bytes, prog.Sym("tbl"), want)
	}
}

func TestBranchOffsetsAccountForPrefix(t *testing.T) {
	// A backwards secure branch over a mix of short and long instructions
	// must land exactly on the label.
	prog := MustAssemble(`
		main:
			li r8, 3
		loop:
			nop
			addi r8, r8, -1
			bne r8, rz, loop
			halt
	`)
	m := emu.New(emu.Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[8] != 0 {
		t.Errorf("r8 = %d, want 0", m.Regs[8])
	}
	if m.Insts != 1+3*3+1 {
		t.Errorf("executed %d instructions, want 11", m.Insts)
	}
}

func TestProgramSymbols(t *testing.T) {
	prog := MustAssemble(`
		.word x 42
		main:
			halt
	`)
	if prog.Entry != prog.Sym("main") {
		t.Errorf("entry %#x != main %#x", prog.Entry, prog.Sym("main"))
	}
	if prog.Sym("x") < isa.DefaultDataBase {
		t.Errorf("data symbol %#x below data base", prog.Sym("x"))
	}
}
