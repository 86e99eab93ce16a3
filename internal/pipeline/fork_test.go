package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// forkPairProg is one side of a calibration-style pair: the two programs
// differ only in the immediate k, loaded into r20 at entry and added by the
// loop body. The prefix carries k but never branches or addresses on it,
// and the branch on r20 after fork_hi is the first place the two diverge.
// The trip counter waits on each iteration's load ("& 0"), so the exit
// mispredict resolves after everything older and the window is empty when
// fetch restarts at fork_lo. After the fork the loop runs again, so the
// body's addi, decoded before the fork, must be decoded afresh for the
// other program.
func forkPairProg(k int) *isa.Program {
	return asm.MustAssemble(fmt.Sprintf(`
		.data buf 4096
		main:
			li   r20, %[1]d
			la   r8, buf
			li   r9, 0
			li   r12, 12
		loop:
			ld   r10, [r8+0]
			addi r10, r10, %[1]d
			st   r10, [r8+64]
			and  r11, r10, rz
			add  r9, r9, r11
			addi r9, r9, 1
			blt  r9, r12, loop
		fork_lo:
			addi r13, r20, 3
			muli r14, r13, 5
			li   r22, 16
		fork_hi:
			blt  r12, r22, again
			beq  r20, rz, zero
			li   r18, 1
			la   r8, buf
			ld   r15, [r8+256]
			ld   r16, [r8+1024]
			jmp  done
		zero:
			li   r18, 2
			la   r8, buf
			ld   r15, [r8+2048]
		done:
			add  r17, r15, r14
			halt
		again:
			li   r12, 16
			jmp  loop
	`, k))
}

// TestForkMatchesFullRun stops program 0 at its drained fork point, forks
// it onto program 1 with the emulator's architectural state, and requires
// the forked run to equal a full run of program 1 — Stats, digests,
// registers, memory and every MemWatch callback after the fork — while
// program 0, continued, equals its own full run. Both configurations.
func TestForkMatchesFullRun(t *testing.T) {
	for _, cfg := range specStreamCfgs() {
		t.Run(cfg.name, func(t *testing.T) {
			p0, p1 := forkPairProg(0), forkPairProg(1)
			lo, hi := p0.Sym("fork_lo"), p0.Sym("fork_hi")

			var seen []memAccess
			record := func(addr uint64, write bool, cycle uint64) {
				seen = append(seen, memAccess{addr, write, cycle})
			}
			c0 := New(cfg.cfg, p0)
			c0.MemWatch = record
			stopped, err := c0.RunToFork(lo, hi)
			if err != nil || !stopped {
				t.Fatalf("RunToFork: stopped %v, err %v", stopped, err)
			}
			if pc := c0.FetchPC(); pc < lo || pc > hi {
				t.Fatalf("stopped with fetch at %#x, outside [%#x, %#x]", pc, lo, hi)
			}
			prefix := append([]memAccess(nil), seen...)

			m := emu.New(emu.Legacy, p1, cfg.cfg.SPM.Slots)
			if err := m.RunTo(c0.Stats.Insts); err != nil {
				t.Fatal(err)
			}
			if m.PC != c0.FetchPC() || m.CommitDigest != c0.CommitDigest() || m.MemDigest != c0.MemDigest() {
				t.Fatal("the emulator's program-1 prefix does not match the stopped core")
			}
			c1 := New(cfg.cfg, p0)
			c1.MemWatch = record
			m.Mem = c1.Fork(c0, p1, &m.Regs, m.Mem)

			seen = seen[:0]
			if err := c0.Run(); err != nil {
				t.Fatal(err)
			}
			full0, full0Mem := fullRun(t, cfg.cfg, p0)
			checkSameRun(t, "continued program 0", c0, append(prefix, seen...), full0, full0Mem)

			seen = seen[:0]
			if err := c1.Run(); err != nil {
				t.Fatal(err)
			}
			full1, full1Mem := fullRun(t, cfg.cfg, p1)
			checkSameRun(t, "forked program 1", c1, append(prefix, seen...), full1, full1Mem)
			if c0.ArchRegs()[18] == c1.ArchRegs()[18] {
				t.Error("the two programs took the same path after the fork; the pair tests nothing")
			}
		})
	}
}

// fullRun runs prog from the start, recording MemWatch callbacks.
func fullRun(t *testing.T, cfg Config, prog *isa.Program) (*Core, []memAccess) {
	t.Helper()
	var seen []memAccess
	c := New(cfg, prog)
	c.MemWatch = func(addr uint64, write bool, cycle uint64) {
		seen = append(seen, memAccess{addr, write, cycle})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c, seen
}

func checkSameRun(t *testing.T, what string, got *Core, gotMem []memAccess, want *Core, wantMem []memAccess) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("%s: Stats\n got  %+v\n want %+v", what, got.Stats, want.Stats)
	}
	if got.CommitDigest() != want.CommitDigest() || got.MemDigest() != want.MemDigest() {
		t.Errorf("%s: digests differ", what)
	}
	if got.ArchRegs() != want.ArchRegs() {
		t.Errorf("%s: registers differ", what)
	}
	if a, diff := got.Mem().FirstDiff(want.Mem()); diff {
		t.Errorf("%s: memory differs at %#x", what, a)
	}
	if !reflect.DeepEqual(gotMem, wantMem) {
		t.Errorf("%s: MemWatch callbacks differ (%d vs %d)", what, len(gotMem), len(wantMem))
	}
	if got.BP.Digest() != want.BP.Digest() || got.Hier.DL1.Digest() != want.Hier.DL1.Digest() ||
		got.Hier.IL1.Digest() != want.Hier.IL1.Digest() || got.Hier.L2.Digest() != want.Hier.L2.Digest() {
		t.Errorf("%s: predictor or cache state differs", what)
	}
}
