package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xDEADBEEFCAFEF00D)
	if got := m.Read64(0x1000); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("Read64 = %#x", got)
	}
	if got := m.Read8(0x1000); got != 0x0D {
		t.Errorf("little-endian low byte = %#x", got)
	}
	if got := m.Read8(0x1007); got != 0xDE {
		t.Errorf("little-endian high byte = %#x", got)
	}
	// Unbacked reads are zero.
	if got := m.Read64(0x999999); got != 0 {
		t.Errorf("unbacked read = %#x", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page Read64 = %#x", got)
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryCloneAndEqual: FirstDiff, the comparison tests hold pipeline
// memory to the emulator's with, finds no difference between two images
// written alike, the lowest differing address once they diverge, and none
// between a zero-filled page and an absent one.
func TestMemoryCloneAndEqual(t *testing.T) {
	m, c := NewMemory(), NewMemory()
	m.Write64(0x100, 42)
	c.Write64(0x100, 42)
	if addr, diff := m.FirstDiff(c); diff {
		t.Errorf("memories written alike differ at %#x", addr)
	}
	c.Write64(0x108, 7)
	c.Write8(3*pageSize+5, 1)
	for _, pair := range [][2]*Memory{{m, c}, {c, m}} {
		if addr, diff := pair[0].FirstDiff(pair[1]); !diff || addr != 0x108 {
			t.Errorf("FirstDiff = %#x,%v want 0x108,true", addr, diff)
		}
	}
	// Zero-filled page equals absent page, in both directions.
	z := NewMemory()
	z.Write64(0x100, 0)
	empty := NewMemory()
	if _, diff := z.FirstDiff(empty); diff {
		t.Error("zero page != absent page")
	}
	if _, diff := empty.FirstDiff(z); diff {
		t.Error("absent page != zero page")
	}
}

// TestReservedDataReadsZero: a .data reservation puts no bytes in the
// program image, so Load backs no page for it. Reads of the range, cross-page
// ones included, return zero through both widths; a write after such a read
// lands; Reset makes the range read zero again.
func TestReservedDataReadsZero(t *testing.T) {
	prog := asm.MustAssemble(".data buf 40000\nmain:\n halt\n")
	buf := prog.Sym("buf")
	m := NewMemory()
	m.Load(prog)
	if len(m.pages) != 1 {
		t.Errorf("Load backed %d pages, want 1 (the code page)", len(m.pages))
	}
	offs := []uint64{0, 8, pageSize - 2, pageSize - 5, 2*pageSize + 3, 39992}
	readsZero := func(when string) {
		t.Helper()
		for _, off := range offs {
			a := buf + off
			if m.Read8(a) != 0 || m.Read64(a) != 0 {
				t.Errorf("%s: buf+%#x reads %#x/%#x, want 0", when, off, m.Read8(a), m.Read64(a))
			}
		}
	}
	readsZero("after Load")

	const v = 0x1122334455667788
	for _, off := range offs {
		m.Write64(buf+off, v)
		if got := m.Read64(buf + off); got != v {
			t.Errorf("buf+%#x: Read64 after write = %#x, want %#x", off, got, v)
		}
		if got := m.Read8(buf + off); got != 0x88 {
			t.Errorf("buf+%#x: Read8 of the low byte = %#x", off, got)
		}
		if got := m.Read8(buf + off + 7); got != 0x11 {
			t.Errorf("buf+%#x: Read8 of the top byte = %#x", off+7, got)
		}
	}

	m.Reset()
	m.Load(prog)
	readsZero("after Reset")
}

func TestSPMSnapshotLifecycle(t *testing.T) {
	s := NewSPM(DefaultSPMConfig())
	var regs [isa.NumArchRegs]uint64
	for i := range regs {
		regs[i] = uint64(i) * 10
	}
	stall, err := s.PushInitial(&regs)
	if err != nil {
		t.Fatal(err)
	}
	if stall != (SnapshotBytes+63)/64 {
		t.Errorf("initial save stall = %d, want %d", stall, (SnapshotBytes+63)/64)
	}
	// NT path modifies r5 and r9.
	regs[5] = 999
	s.MarkModified(5, []bool{false})
	regs[9] = 888
	s.MarkModified(9, []bool{false})
	restore, mask, _ := s.EndNTPath(&regs)
	if mask != 1<<5|1<<9 {
		t.Fatalf("NT mask = %#x", mask)
	}
	if restore[5] != 50 || restore[9] != 90 {
		t.Errorf("restore values %d,%d want 50,90", restore[5], restore[9])
	}
	// Simulate the restore, then the T path modifies r5 and r7.
	regs[5], regs[9] = 50, 90
	regs[5] = 111
	s.MarkModified(5, []bool{true})
	regs[7] = 777
	s.MarkModified(7, []bool{true})

	// Outcome taken: current values stand.
	cp := regs
	final, mask, _ := s.EndTPath(true, &cp)
	if mask != 1<<5|1<<7|1<<9 {
		t.Errorf("union mask = %#x", mask)
	}
	if final[5] != 111 || final[7] != 777 || final[9] != 90 {
		t.Errorf("taken finals: %d,%d,%d", final[5], final[7], final[9])
	}
	if s.Depth() != 0 {
		t.Errorf("depth = %d after pop", s.Depth())
	}
}

func TestSPMNotTakenRestore(t *testing.T) {
	s := NewSPM(DefaultSPMConfig())
	var regs [isa.NumArchRegs]uint64
	regs[4] = 40
	regs[6] = 60
	if _, err := s.PushInitial(&regs); err != nil {
		t.Fatal(err)
	}
	// NT path: r4 = 400.
	regs[4] = 400
	s.MarkModified(4, []bool{false})
	restore, mask, _ := s.EndNTPath(&regs)
	regs[4] = restore[4] // back to 40
	if mask != 1<<4 {
		t.Fatalf("NT mask %#x", mask)
	}
	// T path: r6 = 600.
	regs[6] = 600
	s.MarkModified(6, []bool{true})
	final, mask, _ := s.EndTPath(false, &regs)
	if mask != 1<<4|1<<6 {
		t.Errorf("union mask %#x", mask)
	}
	// NT was the true path: r4 takes its NT value, r6 rolls back.
	if final[4] != 400 || final[6] != 60 {
		t.Errorf("NT-true finals r4=%d r6=%d, want 400,60", final[4], final[6])
	}
}

func TestSPMNestedDepthAndOverflow(t *testing.T) {
	s := NewSPM(SPMConfig{Slots: 2, Bandwidth: 64})
	var regs [isa.NumArchRegs]uint64
	if _, err := s.PushInitial(&regs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PushInitial(&regs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PushInitial(&regs); err == nil {
		t.Fatal("third push on a 2-slot SPM succeeded")
	}
	if s.MaxDepth != 2 || s.Depth() != 2 {
		t.Errorf("MaxDepth = %d, depth = %d after a refused push, want 2, 2", s.MaxDepth, s.Depth())
	}
	// Only the second eosJMP's EndTPath frees a slot.
	s.EndNTPath(&regs)
	if s.Depth() != 2 {
		t.Errorf("depth after EndNTPath = %d, want 2", s.Depth())
	}
	s.EndTPath(true, &regs)
	if s.Depth() != 1 {
		t.Errorf("depth after EndTPath = %d, want 1", s.Depth())
	}
	if _, err := s.PushInitial(&regs); err != nil {
		t.Errorf("push into the freed slot: %v", err)
	}
}

func TestSPMTimingIndependentOfOutcome(t *testing.T) {
	// The restore traffic (and so the stall cycles) must depend only on the
	// union of modified registers, never on the branch outcome — the
	// "overwrite with itself" rule that prevents a timing channel.
	run := func(taken bool) (int, uint64) {
		s := NewSPM(DefaultSPMConfig())
		var regs [isa.NumArchRegs]uint64
		_, _ = s.PushInitial(&regs)
		regs[3] = 1
		s.MarkModified(3, []bool{false})
		restore, _, _ := s.EndNTPath(&regs)
		regs[3] = restore[3]
		regs[8] = 2
		s.MarkModified(8, []bool{true})
		_, _, stall := s.EndTPath(taken, &regs)
		return stall, s.BytesRestored
	}
	st1, b1 := run(true)
	st2, b2 := run(false)
	if st1 != st2 || b1 != b2 {
		t.Errorf("restore timing depends on outcome: stall %d vs %d, bytes %d vs %d",
			st1, st2, b1, b2)
	}
}

func TestSPMMarkModifiedAllLevels(t *testing.T) {
	// A register written inside a nested SecBlock is a modification at
	// every enclosing nesting level.
	s := NewSPM(DefaultSPMConfig())
	var regs [isa.NumArchRegs]uint64
	_, _ = s.PushInitial(&regs) // level 0
	_, _ = s.PushInitial(&regs) // level 1
	s.MarkModified(10, []bool{false, true})
	if s.slots[0].ntMod != 1<<10 {
		t.Errorf("level 0 NT vector %#x", s.slots[0].ntMod)
	}
	if s.slots[1].tMod != 1<<10 {
		t.Errorf("level 1 T vector %#x", s.slots[1].tMod)
	}
}
