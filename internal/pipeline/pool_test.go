package pipeline

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestUopPoolResetOnReuse sets every commonly-leaked field on a recycled
// micro-op and checks that the pool hands it back fully zeroed: stale
// operand, flag, or squash state surviving reuse would silently corrupt the
// next instruction that lands in the same slot.
func TestUopPoolResetOnReuse(t *testing.T) {
	var p uopPool
	i := p.get()
	u := &p.arena[i]
	u.seq = 99
	u.ps1, u.ps2, u.ps3 = 7, 8, 9
	u.pd, u.oldPd = 10, 11
	u.hasDest = true
	u.issued = true
	u.completed = true
	u.result = 0xdeadbeef
	u.isLoad, u.isStore = true, true
	u.memAddr, u.storeData = 0x1234, 0x5678
	u.predTaken, u.actualTaken, u.mispredict = true, true, true
	u.isSJmp, u.isEOSJmp = true, true
	u.squashed = true
	p.put(i)

	got := p.get()
	if got != i {
		t.Fatalf("pool did not recycle: got slot %d want %d", got, i)
	}
	if p.arena[got] != (uop{}) {
		t.Errorf("recycled uop not zeroed: %+v", p.arena[got])
	}
}

// TestUopPoolGetRawSkipsZeroing documents the fetch-replay contract:
// getRaw hands back a dirty slot (the caller overwrites the whole struct
// with a prototype), while get zeroes it.
func TestUopPoolGetRawSkipsZeroing(t *testing.T) {
	var p uopPool
	i := p.get()
	p.arena[i].seq = 42
	p.put(i)
	j := p.getRaw()
	if j != i {
		t.Fatalf("pool did not recycle: got slot %d want %d", j, i)
	}
	if p.arena[j].seq != 42 {
		t.Errorf("getRaw zeroed the slot; want stale seq 42, got %d", p.arena[j].seq)
	}
}

// TestUopRingFIFO exercises the fused front-end ring (feRing): entries
// leave in fetch order through both stages, decodeAdvance is bounded by the
// decode queue's free space and by its max, fetchFull holds at the fetch
// buffer's capacity, popAny drains the decoded entries and then the fetched
// ones, and positions wrap around the backing array.
func TestUopRingFIFO(t *testing.T) {
	r := newFERing(2, 3) // 8-entry backing array
	var p uopPool
	var fetched, popped uint64 // seq of the next uop to fetch and to leave
	fetch := func() {
		u := p.get()
		p.arena[u].seq = fetched
		fetched++
		r.pushFetched(u)
	}
	pop := func(how string, u uref) {
		t.Helper()
		if got := p.arena[u].seq; got != popped {
			t.Fatalf("%s = seq %d, want %d", how, got, popped)
		}
		popped++
		p.put(u)
	}
	check := func(step string, wantDec, wantFetch int, wantFull bool) {
		t.Helper()
		if r.decLen() != wantDec || r.nFetch != wantFetch || r.fetchFull() != wantFull {
			t.Fatalf("%s: %d decoded, %d fetched, fetchFull %t; want %d, %d, %t",
				step, r.decLen(), r.nFetch, r.fetchFull(), wantDec, wantFetch, wantFull)
		}
	}
	// Five entries a round: four rounds wrap the backing array twice.
	for round := 0; round < 4; round++ {
		for !r.fetchFull() {
			fetch()
		}
		check("fetch", 0, 3, true)
		r.decodeAdvance(1)
		check("decodeAdvance(1)", 1, 2, false)
		r.decodeAdvance(5)
		check("decodeAdvance(5) with one free decode slot", 2, 1, false)
		r.decodeAdvance(5)
		check("decodeAdvance(5) with a full decode queue", 2, 1, false)
		fetch()
		fetch()
		check("refetch", 2, 3, true)
		if got := p.arena[r.frontDec()].seq; got != popped {
			t.Fatalf("frontDec = seq %d, want %d", got, popped)
		}
		pop("popDec", r.popDec())
		r.decodeAdvance(5)
		check("decodeAdvance(5) after popDec", 2, 2, false)
		for !r.empty() {
			pop("popAny", r.popAny())
		}
		check("drain", 0, 0, false)
	}
	if popped != 20 {
		t.Errorf("%d entries left the ring, want 20", popped)
	}
}

// TestPoolReuseAcrossFlushes runs a branch-heavy program whose outcomes an
// LCG makes effectively unpredictable, so the pipeline flushes constantly and
// every micro-op slot is recycled through wrong-path squashes many times. The
// architectural results must still match the golden-model emulator exactly —
// any operand/flag state leaking through the pool would diverge.
func TestPoolReuseAcrossFlushes(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0          ; loop counter
			li   r9, 12345      ; lcg state
			li   r10, 0         ; taken-path accumulator
			li   r11, 0         ; fallthrough-path accumulator
		loop:
			muli r9, r9, 1103515245
			addi r9, r9, 12345
			shri r12, r9, 16
			andi r12, r12, 1
			bne  r12, rz, taken
			addi r11, r11, 3
			jmp  join
		taken:
			addi r10, r10, 5
		join:
			addi r8, r8, 1
			slti r13, r8, 400
			bne  r13, rz, loop
			halt
	`)
	_, core := runBoth(t, prog, false)
	if core.Stats.BranchMispredicts == 0 {
		t.Fatal("test program produced no mispredicts; flush path not exercised")
	}
	if core.Stats.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
}

// TestPoolReuseAcrossSecureFlushes drives the SeMPE commit-time redirects
// (eosJMP jump-backs squash the front-end buffers) with data-dependent
// secure branches, checking the recycled front-end micro-ops against the
// golden model.
func TestPoolReuseAcrossSecureFlushes(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 0
			li   r9, 0xAC
			li   r10, 0
		loop:
			shri r11, r9, 1
			andi r12, r9, 1
			sbeq r12, rz, even
			addi r10, r10, 7
			jmp  odd_done
		even:
			addi r10, r10, 2
		odd_done:
			eosjmp
			add  r9, r11, rz
			addi r8, r8, 1
			slti r13, r8, 8
			bne  r13, rz, loop
			halt
	`)
	_, core := runBoth(t, prog, true)
	if core.Stats.SecRedirects == 0 {
		t.Fatal("no secure redirects; eosJMP recycle path not exercised")
	}
}

// TestPredecodeCacheConsistency checks that the per-PC decode cache returns
// the same instruction stream as decoding from bytes every fetch: a program
// where the same static pc is fetched from both paths of a branch must
// commit identical instruction counts to the emulator (runBoth asserts
// that), every cached entry must equal a fresh decode at its offset, each
// static instruction must have been decoded once, and bytes that do not
// decode must be marked, with no entry. The cold predictor guesses the
// never-taken beq taken while the div feeding it resolves, so a wrong path
// fetches `bad`, whose opcode byte is invalid.
func TestPredecodeCacheConsistency(t *testing.T) {
	prog := asm.MustAssemble(`
		main:
			li   r8, 10
			li   r9, 0
			li   r10, 1
		loop:
			div  r11, r8, r10
			beq  r11, rz, bad
			add  r9, r9, r8
			addi r8, r8, -1
			bne  r8, rz, loop
			halt
		bad:
			halt
	`)
	bad := int(prog.Sym("bad") - prog.CodeBase)
	prog.Code[bad] = byte(isa.OpInvalid)
	_, core := runBoth(t, prog, false)
	if core.ArchRegs()[9] != 55 {
		t.Errorf("sum = %d, want 55", core.ArchRegs()[9])
	}
	if ei := core.sbIndex[bad]; ei != sbUndecodable {
		t.Errorf("index at the invalid opcode = %d, want sbUndecodable (%d)", ei, sbUndecodable)
	}
	indexed := 0
	for off, ei := range core.sbIndex {
		in, size, err := isa.Decode(core.prog.Code, off)
		if ei == sbUndecodable && err == nil {
			t.Errorf("off %d marked undecodable, but decodes to %v", off, in)
		}
		if ei < 0 {
			continue
		}
		indexed++
		if err != nil {
			t.Fatalf("cached entry %d at off %d, but the bytes do not decode: %v", ei, off, err)
		}
		e := core.sbEntries[ei]
		pc := core.prog.CodeBase + uint64(off)
		if e.proto.inst != in || e.proto.pc != pc || e.proto.npc != pc+uint64(size) {
			t.Errorf("cache at off %d: %v pc %#x npc %#x, fresh decode %v pc %#x npc %#x",
				off, e.proto.inst, e.proto.pc, e.proto.npc, in, pc, pc+uint64(size))
		}
	}
	if n := len(core.sbEntries); indexed != n || core.SBStats.Builds != uint64(n) {
		t.Errorf("%d cached entries, %d indexed, %d decodes counted; want all equal",
			n, indexed, core.SBStats.Builds)
	}
}
