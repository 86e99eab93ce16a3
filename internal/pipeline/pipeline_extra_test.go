package pipeline

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/sempe"
)

// deepNestProg builds count nested secure branches (all taken) around a
// single body instruction.
func deepNestProg(count int) *isa.Program {
	b := asm.NewBuilder()
	b.Label("main")
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 8, Imm: 1})
	joins := make([]string, count)
	for i := 0; i < count; i++ {
		taken := b.FreshLabel("t")
		joins[i] = b.FreshLabel("j")
		b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 8, Rb: 0, Secure: true}, taken)
		// NT path: bump r9 and jump to the join.
		b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 9, Ra: 9, Imm: 1})
		b.EmitRef(isa.Inst{Op: isa.OpJmp}, joins[i])
		b.Label(taken)
	}
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 10, Ra: 10, Imm: 1}) // innermost body
	for i := count - 1; i >= 0; i-- {
		b.Label(joins[i])
		b.Emit(isa.Inst{Op: isa.OpNop, Secure: true}) // eosJMP
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return prog
}

func TestNestingOverflowFaults(t *testing.T) {
	cfg := SecureConfig()
	core := New(cfg, deepNestProg(31))
	err := core.Run()
	if !errors.Is(err, sempe.ErrOverflow) {
		t.Fatalf("err = %v, want jbTable overflow", err)
	}
}

func TestNestingOverflowDowngrades(t *testing.T) {
	cfg := SecureConfig()
	cfg.OverflowNonSecure = true
	core := New(cfg, deepNestProg(33))
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Stats.NestOverflows != 3 {
		t.Errorf("overflows = %d, want 3", core.Stats.NestOverflows)
	}
	regs := core.ArchRegs()
	// All branches taken: the body runs once, and every NT-path register
	// bump is rolled back by the ArchRS restore (the taken path is the true
	// path), so r9 ends at 0.
	if regs[10] != 1 {
		t.Errorf("body executed %d times, want 1", regs[10])
	}
	if regs[9] != 0 {
		t.Errorf("r9 = %d, want 0 (NT effects restored)", regs[9])
	}
	// Dual-path execution happened for exactly the 30 protected levels...
	if core.Stats.SecRedirects != 30 {
		t.Errorf("jump-backs = %d, want 30", core.Stats.SecRedirects)
	}
	// ...and every join marker committed: twice for protected regions, once
	// for downgraded ones.
	if core.Stats.EOSJmps != 2*30+3 {
		t.Errorf("eosJMP commits = %d, want 63", core.Stats.EOSJmps)
	}

	// The functional machine agrees under the same policy.
	m := emu.New(emu.SeMPE, deepNestProg(33), cfg.SPM.Slots)
	m.OverflowNonSecure = true
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[9] != regs[9] || m.Regs[10] != regs[10] {
		t.Errorf("emu disagrees: r9=%d r10=%d vs core r9=%d r10=%d",
			m.Regs[9], m.Regs[10], regs[9], regs[10])
	}
	if m.NestOverflows != 3 {
		t.Errorf("emu overflows = %d, want 3", m.NestOverflows)
	}
}

func TestDowngradeNotTakenPath(t *testing.T) {
	// Overflowing sJMP whose condition is false: the fall-through is
	// already correct, no redirect needed, and the eosJMP is a NOP.
	b := asm.NewBuilder()
	b.Label("main")
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 8, Imm: 1})
	// Fill all 30 slots with enclosing taken regions.
	joins := make([]string, 30)
	for i := range joins {
		tk := b.FreshLabel("t")
		joins[i] = b.FreshLabel("j")
		b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 8, Rb: 0, Secure: true}, tk)
		b.EmitRef(isa.Inst{Op: isa.OpJmp}, joins[i])
		b.Label(tk)
	}
	// The 31st secure branch is not taken (r8 == 1, beq fails... use beq).
	tk := b.FreshLabel("t31")
	j31 := b.FreshLabel("j31")
	b.EmitRef(isa.Inst{Op: isa.OpBeq, Ra: 8, Rb: 0, Secure: true}, tk)
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 11, Ra: 11, Imm: 5}) // NT body (true path)
	b.EmitRef(isa.Inst{Op: isa.OpJmp}, j31)
	b.Label(tk)
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 11, Ra: 11, Imm: 9}) // taken body
	b.Label(j31)
	b.Emit(isa.Inst{Op: isa.OpNop, Secure: true})
	for i := 29; i >= 0; i-- {
		b.Label(joins[i])
		b.Emit(isa.Inst{Op: isa.OpNop, Secure: true})
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := SecureConfig()
	cfg.OverflowNonSecure = true
	core := New(cfg, prog)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if got := core.ArchRegs()[11]; got != 5 {
		t.Errorf("r11 = %d, want 5 (single NT path of the downgraded region)", got)
	}
	if core.Stats.NestOverflows != 1 {
		t.Errorf("overflows = %d, want 1", core.Stats.NestOverflows)
	}
}

func TestWatchdogFires(t *testing.T) {
	// A jump into the data region breaks fetch permanently; the watchdog
	// must convert the hang into an error.
	prog := asm.MustAssemble(`
		.data pit 8
		main:
			la   r8, pit
			jalr rz, [r8+0]
	`)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 2000
	core := New(cfg, prog)
	if err := core.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestMaxCyclesBudget(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
		loop:
			addi r8, r8, 1
			jmp loop
	`)
	cfg := DefaultConfig()
	cfg.MaxCycles = 5000
	core := New(cfg, prog)
	if err := core.Run(); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want cycle budget", err)
	}
}

func TestWrongPathFetchRecovery(t *testing.T) {
	// A conditional branch that jumps over a HALT: wrong-path fetch may
	// reach the HALT or run off the code end, and recovery must still
	// produce the architecturally correct result.
	prog := asm.MustAssemble(`
		main:
			li   r8, 1
			li   r9, 100
		loop:
			addi r9, r9, -1
			beq  r9, rz, done
			jmp  loop
		done:
			li   r10, 77
			halt
	`)
	_, core := runBoth(t, prog, false)
	if core.ArchRegs()[10] != 77 {
		t.Errorf("r10 = %d", core.ArchRegs()[10])
	}
}

func TestCMOVDataPath(t *testing.T) {
	// CMOV reads its old destination as a third operand through rename.
	prog := asm.MustAssemble(`
		main:
			li     r8, 0
			li     r9, 42
			li     r10, 7
			cmovz  r10, r8, r9    ; r8==0 -> r10 = 42
			li     r11, 5
			cmovnz r11, r8, r9    ; r8==0 -> r11 stays 5
			halt
	`)
	_, core := runBoth(t, prog, false)
	regs := core.ArchRegs()
	if regs[10] != 42 || regs[11] != 5 {
		t.Errorf("cmov results r10=%d r11=%d, want 42 5", regs[10], regs[11])
	}
}

func TestILnMissStallsAccounted(t *testing.T) {
	// A program large enough to stream through the IL1 must record fetch
	// stalls and IL1 misses.
	b := asm.NewBuilder()
	b.Label("main")
	for i := 0; i < 4000; i++ {
		b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 8, Ra: 8, Imm: 1})
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	core := New(DefaultConfig(), prog)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Hier.IL1.Stats.Misses == 0 {
		t.Error("no IL1 misses on a 32KB code stream")
	}
	if core.Stats.FetchStallCycles == 0 {
		t.Error("no fetch stalls recorded")
	}
	if core.ArchRegs()[8] != 4000 {
		t.Errorf("r8 = %d", core.ArchRegs()[8])
	}
}

func TestStatsInvariants(t *testing.T) {
	prog := secureBranchProg(1)
	core := New(SecureConfig(), prog)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	s := core.Stats
	if s.EOSJmps != 2*s.SJmps {
		t.Errorf("eosJMP commits %d != 2 x sJMP %d", s.EOSJmps, s.SJmps)
	}
	if s.SecRedirects != s.SJmps {
		t.Errorf("jump-backs %d != sJMPs %d", s.SecRedirects, s.SJmps)
	}
	if s.CPI() <= 0 {
		t.Error("degenerate CPI")
	}
	if core.SPM.Depth() != 0 {
		t.Errorf("SPM depth %d after completion", core.SPM.Depth())
	}
	if core.JB.Depth() != 0 {
		t.Errorf("jbTable depth %d after completion", core.JB.Depth())
	}
}

// TestCoreRandomSecurePrograms is the SeMPE-mode differential fuzz: random
// secure-branch programs (assembled directly, mixing secure and plain
// control flow) must produce identical architectural results on the OoO
// core and the functional machine.
func TestCoreRandomSecurePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		prog := randomSecureProgram(rng)
		ref := emu.New(emu.SeMPE, prog, SecureConfig().SPM.Slots)
		ref.MaxInsts = 500000
		if err := ref.Run(); err != nil {
			t.Fatalf("trial %d: emu: %v\n%s", trial, err, prog.Disassemble())
		}
		core := New(SecureConfig(), prog)
		if err := core.Run(); err != nil {
			t.Fatalf("trial %d: core: %v\n%s", trial, err, prog.Disassemble())
		}
		regs := core.ArchRegs()
		for r := 0; r < isa.NumArchRegs; r++ {
			if regs[r] != ref.Regs[r] {
				t.Fatalf("trial %d: r%d core=%#x emu=%#x\n%s",
					trial, r, regs[r], ref.Regs[r], prog.Disassemble())
			}
		}
		if _, diff := core.Mem().FirstDiff(ref.Mem); diff {
			t.Fatalf("trial %d: memory differs", trial)
		}
	}
}

// randomSecureProgram builds a terminating program with nested secure
// branches (depth <= 3) whose bodies are random ALU/memory work and plain
// branches. Structure: a counted loop around a random secure-region tree.
func randomSecureProgram(rng *rand.Rand) *isa.Program {
	b := asm.NewBuilder()
	b.Data("arr", 256)
	b.Label("main")
	b.EmitRef(isa.Inst{Op: isa.OpLi, Rd: 20}, "arr")
	b.Emit(isa.Inst{Op: isa.OpLi, Rd: 21, Imm: int64(rng.Intn(6) + 2)}) // loop count
	for r := 8; r < 16; r++ {
		b.Emit(isa.Inst{Op: isa.OpLi, Rd: isa.Reg(r), Imm: int64(rng.Intn(64))})
	}
	b.Label("loop")

	reg := func() isa.Reg { return isa.Reg(8 + rng.Intn(8)) }
	emitWork := func(n int) {
		ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpXor, isa.OpAnd, isa.OpOr}
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0, 1, 2:
				b.Emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Ra: reg(), Rb: reg()})
			case 3:
				b.Emit(isa.Inst{Op: isa.OpSt, Rd: reg(), Ra: 20, Imm: int64(rng.Intn(32)) * 8})
			case 4:
				b.Emit(isa.Inst{Op: isa.OpLd, Rd: reg(), Ra: 20, Imm: int64(rng.Intn(32)) * 8})
			}
		}
	}
	var emitRegion func(depth int)
	emitRegion = func(depth int) {
		cond := reg()
		b.Emit(isa.Inst{Op: isa.OpAndi, Rd: 3, Ra: cond, Imm: 1})
		taken := b.FreshLabel("sec_t")
		join := b.FreshLabel("sec_j")
		b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 3, Rb: 0, Secure: true}, taken)
		emitWork(rng.Intn(4) + 1) // NT path
		if depth < 3 && rng.Intn(2) == 0 {
			emitRegion(depth + 1)
		}
		b.EmitRef(isa.Inst{Op: isa.OpJmp}, join)
		b.Label(taken)
		emitWork(rng.Intn(4) + 1) // T path
		if depth < 3 && rng.Intn(2) == 0 {
			emitRegion(depth + 1)
		}
		b.Label(join)
		b.Emit(isa.Inst{Op: isa.OpNop, Secure: true})
	}
	emitRegion(0)
	emitWork(rng.Intn(5))
	b.Emit(isa.Inst{Op: isa.OpAddi, Rd: 21, Ra: 21, Imm: -1})
	b.EmitRef(isa.Inst{Op: isa.OpBne, Ra: 21, Rb: 0}, "loop")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	prog, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return prog
}

func TestDisassemblyShowsSecureMarks(t *testing.T) {
	prog := deepNestProg(2)
	dis := prog.Disassemble()
	if !strings.Contains(dis, "sbne") || !strings.Contains(dis, "eosjmp") {
		t.Errorf("disassembly missing secure mnemonics:\n%s", dis)
	}
}
