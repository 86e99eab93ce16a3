package emu

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sempe"
	"repro/internal/workloads"
)

// slots is the jbTable depth of the paper's core, which every test here
// runs at.
var slots = mem.DefaultSPMConfig().Slots

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
	m := New(Legacy, prog, slots)
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
	m := New(SeMPE, prog, slots)
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
	m := New(SeMPE, prog, slots)
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
	m := New(SeMPE, prog, slots)
	if err := m.Run(); !errors.Is(err, sempe.ErrUnderflow) {
		t.Errorf("err = %v, want sempe.ErrUnderflow", err)
	}
	// On a legacy machine the same binary just runs (eosjmp is a NOP).
	l := New(Legacy, prog, slots)
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
	m := New(Legacy, prog, slots)
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
	m := New(SeMPE, prog, slots)
	if err := m.Run(); !errors.Is(err, sempe.ErrOverflow) {
		t.Errorf("err = %v, want sempe.ErrOverflow", err)
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	prog := asm.MustAssemble("main:\n halt")
	m := New(Legacy, prog, slots)
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
	m := New(SeMPE, prog, slots)
	maxDepth := 0
	for !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if d := m.jb.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 2 {
		t.Errorf("max nest depth = %d, want 2", maxDepth)
	}
	if d := m.jb.Depth(); d != 0 {
		t.Errorf("final nest depth = %d, want 0", d)
	}
}

// pooledPrograms are the programs the pooled machine replays: the Fig. 10
// harnesses of every kernel, plain (legacy mode) and SeMPE (SeMPE mode),
// their constant-time variants, and the three djpeg decoders.
func pooledPrograms(t *testing.T) (progs []*isa.Program, modes []Mode) {
	t.Helper()
	for _, k := range workloads.All() {
		for _, secret := range []uint64{0, 3} {
			spec := workloads.HarnessSpec{Kind: k, W: 2, I: 2, Secret: secret}
			p := workloads.Harness(spec)
			for _, cm := range []compile.Mode{compile.Plain, compile.SeMPE, compile.CTE} {
				if cm == compile.CTE {
					p = workloads.HarnessCT(spec)
				}
				out, err := compile.Compile(p, cm)
				if err != nil {
					t.Fatalf("%s %v: %v", p.Name, cm, err)
				}
				mode := Legacy
				if cm == compile.SeMPE {
					mode = SeMPE
				}
				progs, modes = append(progs, out.Prog), append(modes, mode)
			}
		}
	}
	for _, f := range jpegsim.Formats() {
		p := jpegsim.BuildProgram(jpegsim.ImageSpec{Format: f, Blocks: 2, Sparsity: 50, Seed: 7})
		out, err := compile.Compile(p, compile.SeMPE)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		progs, modes = append(progs, out.Prog), append(modes, SeMPE)
	}
	return progs, modes
}

// TestPooledResetMatchesNew runs every pooled program on one machine that
// is Reset between programs, and on a New machine per program: registers,
// PC, counters, both trace digests and memory must agree. Reset must leave
// nothing of the previous program behind, its decode cache included.
func TestPooledResetMatchesNew(t *testing.T) {
	progs, modes := pooledPrograms(t)
	var pooled *Machine
	for i, prog := range progs {
		fresh := New(modes[i], prog, slots)
		if pooled == nil {
			pooled = New(modes[i], prog, slots)
		} else {
			pooled.Reset(modes[i], prog)
		}
		for _, m := range []*Machine{fresh, pooled} {
			m.MaxInsts = 50_000_000
			if err := m.Run(); err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
		}
		if fresh.Regs != pooled.Regs || fresh.PC != pooled.PC || fresh.Insts != pooled.Insts ||
			fresh.SJmps != pooled.SJmps || fresh.EOSJmps != pooled.EOSJmps || fresh.Branches != pooled.Branches ||
			fresh.CommitDigest != pooled.CommitDigest || fresh.MemDigest != pooled.MemDigest {
			t.Fatalf("program %d: pooled machine diverged from a new one", i)
		}
		if a, diff := fresh.Mem.FirstDiff(pooled.Mem); diff {
			t.Fatalf("program %d: memories differ at %#x", i, a)
		}
	}
}

// TestStoreIntoCodeChangesDataOnly: a store into the code range changes
// data memory, not the program image both machines decode from. The loop's
// li executes twice with the immediate it was assembled with, the stored
// byte reads back from memory, and the core ends in the emulator's state.
func TestStoreIntoCodeChangesDataOnly(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r9, 0
		patch:
			li   r8, 5
			add  r10, r10, r8
			addi r9, r9, 1
			la   r11, patch
			li   r12, 7
			stb  r12, [r11+4]
			ldb  r14, [r11+4]
			li   r13, 2
			blt  r9, r13, patch
			halt
	`)
	m := New(Legacy, prog, slots)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	core := pipeline.New(pipeline.DefaultConfig(), prog)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[10] != 10 {
		t.Errorf("r10 = %d, want 5+5 = 10 (the image's li, not the stored byte)", m.Regs[10])
	}
	if m.Regs[14] != 7 {
		t.Errorf("r14 = %d, want the stored 7 read back", m.Regs[14])
	}
	if core.ArchRegs() != m.Regs {
		t.Errorf("core registers %v, emulator %v", core.ArchRegs(), m.Regs)
	}
	if a, diff := core.Mem().FirstDiff(m.Mem); diff {
		t.Errorf("memories differ at %#x", a)
	}
}

// TestRunToStopsAtCount: RunTo stops after exactly n instructions, its
// commit digest is the digest of the n PCs executed, and both digests
// equal those of a machine stepped n times.
func TestRunToStopsAtCount(t *testing.T) {
	prog := asm.MustAssemble(`
		.data buf 64
		main:
			la   r8, buf
			li   r9, 0
		loop:
			st   r9, [r8+0]
			ld   r10, [r8+0]
			addi r9, r9, 1
			li   r11, 5
			blt  r9, r11, loop
			halt
	`)
	a, b := New(Legacy, prog, slots), New(Legacy, prog, slots)
	if err := a.RunTo(9); err != nil {
		t.Fatal(err)
	}
	commits := uint64(isa.DigestSeed) // the committed-PC digest, by hand
	for i := 0; i < 9; i++ {
		commits = isa.DigestMix(commits, b.PC)
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if a.CommitDigest != commits {
		t.Errorf("commit digest %#x, want the PCs' digest %#x", a.CommitDigest, commits)
	}
	if a.Insts != 9 || a.PC != b.PC || a.CommitDigest != b.CommitDigest || a.MemDigest != b.MemDigest {
		t.Errorf("RunTo(9): insts %d pc %#x digests %#x/%#x; stepped: pc %#x digests %#x/%#x",
			a.Insts, a.PC, a.CommitDigest, a.MemDigest, b.PC, b.CommitDigest, b.MemDigest)
	}
	if a.MemDigest == isa.DigestSeed {
		t.Error("memory digest never moved over two stores and two loads")
	}
}
