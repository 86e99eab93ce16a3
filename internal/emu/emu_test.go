package emu

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestLegacyIgnoresSecureInstructions(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 1
			sbne r8, rz, t
			li   r9, 100
			jmp  j
		t:
			li   r9, 200
		j:
			eosjmp
			halt
	`)
	m := New(Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[9] != 200 {
		t.Errorf("r9 = %d, want 200 (taken path only)", m.Regs[9])
	}
	if m.SJmps != 0 || m.EOSJmps != 0 {
		t.Errorf("legacy mode counted secure instructions: %d %d", m.SJmps, m.EOSJmps)
	}
}

func TestSeMPEExecutesBothPathsNTFirst(t *testing.T) {
	// Both paths increment a shared memory counter; the NT path must run
	// first (its write lands first), and the register state must reflect
	// only the true path.
	prog := asm.MustAssemble(`
		.data order 32
		main:
			li   r8, 1          ; secret: taken
			la   r13, order
			li   r14, 0         ; write cursor (register, restored by HW)
			sbne r8, rz, t
			li   r9, 111        ; NT path marker
			st   r9, [r13+0]
			jmp  j
		t:
			li   r9, 222        ; T path marker
			st   r9, [r13+8]
		j:
			eosjmp
			halt
	`)
	m := New(SeMPE, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Both stores happened (both paths executed).
	if m.Mem.Read64(prog.Sym("order")) != 111 || m.Mem.Read64(prog.Sym("order")+8) != 222 {
		t.Error("both paths should have stored their markers")
	}
	// r9 holds the true-path (taken) value after the ArchRS restore.
	if m.Regs[9] != 222 {
		t.Errorf("r9 = %d, want 222", m.Regs[9])
	}
	if m.SJmps != 1 || m.EOSJmps != 2 {
		t.Errorf("sjmp=%d eosjmp=%d", m.SJmps, m.EOSJmps)
	}
}

func TestSeMPERegisterRestoreNotTaken(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0          ; secret: not taken
			li   r9, 7          ; live-in
			sbne r8, rz, t
			addi r10, r9, 1     ; NT: r10 = 8
			jmp  j
		t:
			addi r10, r9, 2     ; T: r10 = 9
			li   r9, 42         ; T also clobbers r9
		j:
			eosjmp
			halt
	`)
	m := New(SeMPE, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[10] != 8 {
		t.Errorf("r10 = %d, want 8 (NT path is the true path)", m.Regs[10])
	}
	if m.Regs[9] != 7 {
		t.Errorf("r9 = %d, want 7 (T-path clobber must be rolled back)", m.Regs[9])
	}
}

func TestEOSJmpWithoutSJmpFails(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			eosjmp
			halt
	`)
	m := New(SeMPE, prog)
	if err := m.Run(); !errors.Is(err, ErrJbUnder) {
		t.Errorf("err = %v, want ErrJbUnder", err)
	}
	// On a legacy machine the same binary just runs (eosjmp is a NOP).
	l := New(Legacy, prog)
	if err := l.Run(); err != nil {
		t.Errorf("legacy: %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
		loop:
			jmp loop
	`)
	m := New(Legacy, prog)
	m.MaxInsts = 1000
	if err := m.Run(); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestDeepNestingOverflow(t *testing.T) {
	// 31 nested sJMPs exceed the 30 SPM slots.
	b := asm.NewBuilder()
	b.Label("main")
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 8, Imm: 1})
	for i := 0; i < 31; i++ {
		lbl := b.FreshLabel("t")
		b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 8, Rb: 0, Secure: true}, lbl)
		b.Label(lbl) // empty NT path falling straight into the taken label
	}
	for i := 0; i < 31; i++ {
		b.Emit(isa.Inst{Op: isa.OpNop, Secure: true})
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := New(SeMPE, prog)
	if err := m.Run(); !errors.Is(err, ErrNestDepth) {
		t.Errorf("err = %v, want ErrNestDepth", err)
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	prog := asm.MustAssemble("main:\n halt")
	m := New(Legacy, prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	insts := m.Insts
	if err := m.Step(); err != nil || m.Insts != insts {
		t.Error("Step after halt executed something")
	}
}

func TestNestDepthTracking(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 1
			sbne r8, rz, t1
			jmp  j1
		t1:
			sbne r8, rz, t2
			jmp  j2
		t2:
			nop
		j2:
			eosjmp
		j1:
			eosjmp
			halt
	`)
	m := New(SeMPE, prog)
	maxDepth := 0
	for !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if d := len(m.jb); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 2 {
		t.Errorf("max nest depth = %d, want 2", maxDepth)
	}
	if len(m.jb) != 0 {
		t.Errorf("final nest depth = %d, want 0", len(m.jb))
	}
}
