package pipeline

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// Decode cache: the front end decodes each static instruction once per run,
// into a prototype micro-op with everything that is a pure function of the
// instruction bytes precomputed (decoded instruction, pc, npc,
// functional-unit class, rename sources, memory shape) plus how fetch must
// steer after it. sbIndex maps a code offset to the instruction's entry in
// sbEntries; fetch looks up the entry at fetchPC for every instruction it
// fetches, decoding on first touch. (The sb names and SuperblockStats date
// from an engine that cached straight-line traces, "superblocks"; the
// metric families that read them keep the name.)
//
// Fetch copies the prototype over a raw pool slot, assigns the dynamic
// sequence number, charges the IL1 once per distinct line per fetch group
// (re-charging an instruction whose line missed once the fill completes),
// and runs predecode only for entries whose front-end behavior is dynamic.
// Within one fetch group consecutive instructions are address-contiguous: a
// predicted-taken transfer, a HALT or an IL1 miss ends the group, and sJMP
// and eosJMP fall through. So whether an instruction can touch a line its
// predecessor in the group did not is a property of its address (sbEntry
// newLine). Replay replaced a per-instruction decode walk; its timing and
// events are identical to that walk's, which the golden files under
// internal/pipeline/testdata (recorded from the walk) and the scenario
// goldens and spec streams in internal/experiments/testdata pin.
//
// Entries cache nothing about cache or predictor state, so a redirect, a
// flush or an IL1-miss retry needs no invalidation: an entry is a static
// decode of the program image's bytes at its pc, whichever path fetched it.
// The image does not change within a run: a store into the code range
// changes data memory only, here as in the emulator (internal/emu). Across
// runs Core.Reset, which New also runs, drops every entry before loading the
// next program, and Fork drops those whose bytes the new program changes.

// sbIndex values for offsets that hold no entry.
const (
	sbUndecoded   int32 = -1 // not decoded yet
	sbUndecodable int32 = -2 // the bytes do not decode (only a wrong path fetches them)
)

// sbKind classifies how an entry's front-end behavior is produced at fetch.
// sbDecode resolves each control-flow shape to its own kind with the static
// taken target precomputed, so fetch dispatches directly instead of
// re-deriving the shape from the opcode. Instructions whose front-end
// behavior depends on dynamic predictor state beyond a direction lookup
// (JALR's RAS/ITTAGE target) or on SeMPE marking go through predecode.
type sbKind uint8

const (
	// sbSeq: plain sequential instruction; fetch sets fetchPC = npc.
	sbSeq sbKind = iota
	// sbPredecode: JALR or SeMPE marker; fetch calls predecode for dynamic
	// target prediction and sJMP/eosJMP marking.
	sbPredecode
	// sbHalt: HALT; sequential, plus the fetch-side halt latch.
	sbHalt
	// sbBranch: conditional branch (non-secure); direction from the TAGE
	// lookup, taken target static.
	sbBranch
	// sbJmp: unconditional direct jump; always redirects to the static target.
	sbJmp
	// sbJal: direct call; like sbJmp plus an optional RAS push (pushRet).
	sbJal
)

// sbEntry is one cached static instruction.
type sbEntry struct {
	proto  uop    // inst/pc/npc and static metadata filled; dynamic fields zero
	target uint64 // static taken target (sbBranch/sbJmp/sbJal)
	kind   sbKind
	// newLine is false when the instruction lies on one IL1 line and does
	// not start it: fetched directly after its predecessor in the same group
	// (which ends on that line), it charges nothing, so the per-line loop is
	// skipped. The first instruction of every group still runs the full
	// check (the line dedup resets every cycle).
	newLine bool
	pushRet bool // sbJal with Rd==LR: push the return address at fetch
}

// fetch fills the fetch buffer for this cycle from the decode cache,
// consulting the IL1 for every distinct cache line touched and the branch
// predictors for control flow. Per cycle it fetches up to FetchWidth
// instructions with one shared last-line IL1 dedup across the group, stalls
// and retries on an IL1 miss with the current instruction re-charged after
// the fill, ends the group on a predicted-taken transfer, latches
// halt/broken at the instruction that causes them, and emits the per-fetch
// spec events (fill stamp, SpecBPLookup, SpecFetch) in that order when a
// watch is armed. Secure branches are never predicted: under SeMPE an sJMP
// always falls through into the not-taken path, so the fetch stream carries
// no information about the secret (and the predictor state is never
// updated by it).
func (c *Core) fetch() {
	if c.fetchHalted || c.fetchBroken {
		return
	}
	if c.cycle < c.fetchStallUntil {
		c.Stats.FetchStallCycles++
		return
	}
	// Reserve pool slots for the whole group up front so the arena cannot
	// move mid-loop and its pointer can be hoisted.
	c.pool.reserve(c.cfg.FetchWidth)
	arena := c.pool.arena
	// A spec watch is armed or disarmed between cycles, never inside a
	// fetch group, so one read of it serves the whole group.
	traced := c.specWatch != nil
	index, entries, base := c.sbIndex, c.sbEntries, c.prog.CodeBase
	var lastLine uint64 = ^uint64(0)
	for n := 0; n < c.cfg.FetchWidth && !c.fe.fetchFull(); n++ {
		// Only a wrong path (or a malformed program, until the watchdog
		// trips) leaves the code image or reaches undecodable bytes; fetch
		// then waits for the flush that redirects it.
		off := c.fetchPC - base
		if off >= uint64(len(index)) {
			c.fetchBroken = true
			return
		}
		ei := index[off]
		if ei < 0 {
			if ei == sbUndecoded {
				ei = c.sbDecode(int(off))
				entries = c.sbEntries
			}
			if ei < 0 {
				c.fetchBroken = true
				return
			}
		}
		e := &entries[ei]
		if traced {
			// Attribute IL1 fills (and any prefetches they trigger) to this
			// fetch. c.seq is the sequence number it is about to get.
			c.specPC, c.specSeq = e.proto.pc, c.seq
		}
		// Charge IL1 for each distinct line: lastLine is updated even on a
		// miss, and a miss retries the whole instruction after the stall
		// (recharging its lines).
		if e.newLine || n == 0 {
			for a := e.proto.pc &^ (cache.LineSize - 1); a < e.proto.npc; a += cache.LineSize {
				if a == lastLine {
					continue
				}
				lat := c.Hier.IL1.AccessPC(e.proto.pc, a, false)
				lastLine = a
				if lat > c.cfg.Caches.IL1.HitLatency {
					c.fetchStallUntil = c.cycle + uint64(lat)
					return // fetchPC still points here: retried after the fill
				}
			}
		}

		i := c.pool.getRaw()
		u := &arena[i]
		*u = e.proto
		u.seq = c.seq
		c.seq++
		c.SBStats.Replays++
		c.fe.pushFetched(i)

		// Direct dispatch on the decoded kind. end marks the last
		// instruction of the fetch group: a (predicted-)taken transfer or
		// HALT.
		end := false
		switch e.kind {
		case sbSeq:
			c.fetchPC = u.npc
		case sbBranch:
			u.predTaken = c.BP.PredictBranch(u.pc)
			u.predTarget = e.target
			if traced {
				c.emitSpec(SpecEvent{Kind: SpecBPLookup, Seq: u.seq, PC: u.pc, Addr: u.predTarget, Taken: u.predTaken})
			}
			if u.predTaken {
				c.fetchPC = e.target
				end = true
			} else {
				c.fetchPC = u.npc
			}
		case sbJmp, sbJal:
			u.predTaken = true
			u.predTarget = e.target
			if e.pushRet {
				c.BP.PushReturn(u.npc)
			}
			c.fetchPC = e.target
			end = true
		case sbHalt:
			c.fetchPC = u.npc
			c.fetchHalted = true
			end = true
		default: // sbPredecode: JALR or SeMPE marker
			end = c.predecode(u)
		}
		if traced && specWatched(u) {
			c.emitSpec(SpecEvent{Kind: SpecFetch, Seq: u.seq, PC: u.pc, Addr: u.predTarget, Taken: u.predTaken})
		}
		if end {
			return
		}
	}
}

// sbDecode decodes the instruction at code offset off into a new entry,
// indexes it and returns its index, or marks the offset and returns
// sbUndecodable when the bytes do not decode.
func (c *Core) sbDecode(off int) int32 {
	inst, size, err := isa.Decode(c.prog.Code, off)
	if err != nil {
		c.sbIndex[off] = sbUndecodable
		return sbUndecodable
	}
	pc := c.prog.CodeBase + uint64(off)
	e := sbEntry{target: pc + uint64(inst.Imm)}
	e.proto.inst, e.proto.pc, e.proto.npc = inst, pc, pc+uint64(size)
	fillStatic(&e.proto)
	e.newLine = pc%cache.LineSize == 0 || pc/cache.LineSize != (e.proto.npc-1)/cache.LineSize
	switch op := inst.Op; {
	case op == isa.OpHalt:
		e.kind = sbHalt
	case c.cfg.SeMPE && (inst.IsSJmp() || inst.IsEOSJmp()):
		// SeMPE markers: sJMP must skip prediction and eosJMP is a secure
		// NOP that predecode must mark so rename drains. Without SeMPE both
		// decode as their plain shapes (backward compat) and take the
		// direct-dispatch kinds below.
		e.kind = sbPredecode
	case op.IsBranch():
		e.kind = sbBranch
	case op == isa.OpJmp:
		e.kind = sbJmp
	case op == isa.OpJal:
		e.kind = sbJal
		e.pushRet = inst.Rd == isa.LR
	case op.IsControl():
		e.kind = sbPredecode // JALR: dynamic target prediction
	default:
		e.kind = sbSeq
	}
	ei := int32(len(c.sbEntries))
	c.sbEntries = append(c.sbEntries, e)
	c.sbIndex[off] = ei
	c.SBStats.Builds++
	// Stamp the decode with the next sequence number: a later flush whose
	// boundary seq is older counts it as wrong-path work (the fetch that
	// triggered it was squashed or dropped). The entry itself stays cached —
	// a static decode is path-independent.
	c.sbBuildSeqs = append(c.sbBuildSeqs, c.seq)
	return ei
}

// fillStatic derives u's static metadata from u.inst. The source mapping
// mirrors renameOne's historical per-class switch exactly (including the
// default case taking at most the first two SrcRegs).
func fillStatic(u *uop) {
	in := u.inst
	u.cl = in.Op.ClassOf()
	u.sra1, u.sra2, u.sra3 = sraNone, sraNone, sraNone
	u.writesRd = in.WritesRd()
	switch {
	case u.cl == isa.ClassStore:
		u.sra1, u.sra3 = int8(in.Ra), int8(in.Rd) // address base, store data
		u.isStore = true
		u.memWidth = uint8(isa.MemWidth(in.Op))
	case u.cl == isa.ClassLoad:
		u.sra1 = int8(in.Ra)
		u.isLoad = true
		u.memWidth = uint8(isa.MemWidth(in.Op))
	case u.cl == isa.ClassCMov:
		u.sra1, u.sra2 = int8(in.Ra), int8(in.Rb)
		u.sra3 = int8(in.Rd) // old destination value
	case u.cl == isa.ClassBranch:
		u.sra1, u.sra2 = int8(in.Ra), int8(in.Rb)
	case in.Op == isa.OpJalr:
		u.sra1 = int8(in.Ra)
	default:
		var srcs [3]isa.Reg
		ss := in.SrcRegs(srcs[:0])
		if len(ss) > 0 {
			u.sra1 = int8(ss[0])
		}
		if len(ss) > 1 {
			u.sra2 = int8(ss[1])
		}
	}
}

// sbCountWrongPathBuilds attributes decodes stamped younger than boundary
// to wrong-path work. Stamps are appended in seq order, so the wrong-path
// tail is a binary-search truncation; counted stamps are dropped so a decode
// is attributed at most once.
func (c *Core) sbCountWrongPathBuilds(boundary uint64) {
	s := c.sbBuildSeqs
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= boundary {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if n := len(s) - lo; n > 0 {
		c.SBStats.WrongPathBuilds += uint64(n)
		c.sbBuildSeqs = s[:lo]
	}
}
