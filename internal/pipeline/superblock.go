package pipeline

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// Superblock engine: the front end caches decoded straight-line traces
// ("superblocks") and replays them on re-entry instead of re-walking the
// per-instruction decode/classify/predecode machinery.
//
// A superblock is the run of static instructions starting at some pc and
// ending at the first unconditional transfer (JMP/JAL/JALR), HALT,
// undecodable byte, end of the code image, or the sbMaxEntries cap.
// Conditional branches and SeMPE markers do NOT end a block: their dynamic
// behavior (prediction, RAS traffic, sJMP/eosJMP marking) is resolved at
// replay time, so a block replays correctly whether the branch falls
// through (replay continues inside the block) or redirects (the fetch group
// ends and the cursor is dropped).
//
// Each entry carries a prototype micro-op with everything that is a pure
// function of the instruction bytes precomputed — decoded instruction, pc,
// npc, functional-unit class — plus the IL1 line addresses its bytes touch.
// Replay copies the prototype over a raw pool slot, assigns the dynamic
// sequence number, charges the IL1 once per distinct line per fetch group
// (re-charging an instruction whose line missed once the fill completes),
// and runs predecode only for entries whose front-end behavior is dynamic.
// The engine replaced a per-instruction decode walk; its timing and events
// are identical to that walk's, which the golden files under
// internal/pipeline/testdata (recorded from the walk) and the scenario
// goldens and spec streams in internal/experiments/testdata pin.
//
// The replay cursor (sbCur/sbCurIdx) is self-validating: it is only resumed
// when the entry it points at matches fetchPC, so redirects, IL1-miss
// retries, and block exhaustion need no invalidation bookkeeping beyond the
// pc check. Blocks cache nothing about cache/predictor state, so there are
// no staleness edges to invalidate for; the only way a cached block could
// go stale is the program's code bytes changing, which cannot happen within
// a run (the ISA has no stores to the code image) — across runs Core.Reset,
// which New also runs, drops every cached block (recycling the entry
// slices) before loading the next program.

// sbKind classifies how an entry's front-end behavior is produced at replay.
// The build resolves each control-flow shape to its own kind with the
// static taken target precomputed, so replay dispatches directly instead of
// re-deriving the shape from the opcode. Instructions whose front-end
// behavior depends on dynamic predictor state beyond a direction lookup
// (JALR's RAS/ITTAGE target) or on SeMPE marking go through predecode.
type sbKind uint8

const (
	// sbSeq: plain sequential instruction; replay sets fetchPC = npc.
	sbSeq sbKind = iota
	// sbPredecode: JALR or SeMPE marker; replay calls predecode for dynamic
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

// sbMaxEntries caps a superblock's length so a pathological straight-line
// region cannot produce an unbounded build.
const sbMaxEntries = 64

// sbEntry is one cached instruction slot in a superblock.
type sbEntry struct {
	proto  uop       // inst/pc/npc/cl filled; dynamic fields zero
	lines  [2]uint64 // IL1 lines the instruction bytes touch, in order
	target uint64    // static taken target (sbBranch/sbJmp/sbJal)
	nlines uint8     // 1 or 2 (an instruction is at most 9 bytes)
	kind   sbKind
	// newLine is false when the entry stays entirely on the previous entry's
	// last IL1 line: replaying it directly after its predecessor in the same
	// fetch group charges nothing, so the per-line loop can be skipped
	// statically. The first entry of every group still runs the full check
	// (the line dedup resets every cycle).
	newLine bool
	pushRet bool // sbJal with Rd==LR: push the return address at replay
}

// superblock is one cached straight-line trace.
type superblock struct {
	entries []sbEntry
}

// fetchSuperblock is the fetch path. Per cycle it fetches up to FetchWidth
// instructions with one shared last-line IL1 dedup across the whole group
// (including across block boundaries within the group), stalls and retries
// on an IL1 miss with the current entry re-charged after the fill, ends the
// group on a predicted-taken transfer, latches halt/broken at the
// instruction that causes them, and emits the per-fetch spec events (fill
// stamp, SpecBPLookup, SpecFetch) in that order when a watch is armed.
func (c *Core) fetchSuperblock() {
	// Reserve pool slots for the whole group up front so the arena cannot
	// move mid-loop and its pointer can be hoisted.
	c.pool.reserve(c.cfg.FetchWidth)
	arena := c.pool.arena
	// A spec watch is armed or disarmed between cycles, never inside a
	// fetch group, so one read of it serves the whole group.
	traced := c.specWatch != nil
	var lastLine uint64 = ^uint64(0)
	n := 0
	for n < c.cfg.FetchWidth && !c.fe.fetchFull() {
		// Establish a valid cursor: resume only when the cursor entry is the
		// instruction fetch wants next.
		if c.sbCur < 0 || int(c.sbCurIdx) >= len(c.sbBlocks[c.sbCur].entries) ||
			c.sbBlocks[c.sbCur].entries[c.sbCurIdx].proto.pc != c.fetchPC {
			if !c.sbLookup() {
				return // fetchBroken latched
			}
		}
		blk := &c.sbBlocks[c.sbCur]
		for n < c.cfg.FetchWidth && !c.fe.fetchFull() && int(c.sbCurIdx) < len(blk.entries) {
			e := &blk.entries[c.sbCurIdx]
			if traced {
				// Attribute IL1 fills (and any prefetches they trigger) to
				// this fetch. c.seq is the sequence number it is about to get.
				c.specPC, c.specSeq = e.proto.pc, c.seq
			}
			// Charge IL1 for each distinct line: lastLine is updated even on
			// a miss, and a miss retries the whole instruction after the
			// stall (recharging its lines). Entries statically known to stay
			// on their predecessor's line (newLine false) skip the loop
			// whenever that predecessor was replayed earlier in this same
			// group (n > 0); the group's first instruction always runs the
			// full check, since the dedup resets every cycle.
			if e.newLine || n == 0 {
				for li := 0; li < int(e.nlines); li++ {
					a := e.lines[li]
					if a == lastLine {
						continue
					}
					lat := c.Hier.IL1.AccessPC(e.proto.pc, a, false)
					lastLine = a
					if lat > c.cfg.Caches.IL1.HitLatency {
						c.fetchStallUntil = c.cycle + uint64(lat)
						return // cursor still points here: retried after the fill
					}
				}
			}

			i := c.pool.getRaw()
			u := &arena[i]
			*u = e.proto
			u.seq = c.seq
			c.seq++
			c.sbCurIdx++
			c.SBStats.Replays++
			c.fe.pushFetched(i)
			n++

			// Direct dispatch on the build-time kind. end marks the last
			// instruction of the fetch group: a (predicted-)taken transfer
			// or HALT. On a redirect the cursor
			// is left as-is; the pc check above re-validates or drops it.
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
		// Block exhausted mid-group: the outer loop re-establishes a cursor
		// at fetchPC (building a new block if needed), continuing the same
		// fetch group in the same cycle — block end is not group end.
	}
}

// sbLookup points the cursor at a block starting at fetchPC, building one
// on first touch. It returns false after latching fetchBroken when fetchPC
// is outside the code image or undecodable: only a wrong path gets there,
// and fetch then waits for the flush that redirects it.
func (c *Core) sbLookup() bool {
	pc := c.fetchPC
	if pc < c.prog.CodeBase || pc >= c.prog.CodeEnd() {
		c.fetchBroken = true
		return false
	}
	off := int(pc - c.prog.CodeBase)
	bi := c.sbIndex[off]
	if bi < 0 {
		bi = c.sbBuild(off)
		if bi < 0 {
			c.fetchBroken = true
			return false
		}
	}
	c.sbCur = bi
	c.sbCurIdx = 0
	return true
}

// sbBuild decodes a superblock starting at code offset off and registers it
// in sbIndex. It returns -1 when the first instruction is undecodable (the
// caller latches fetchBroken). A later undecodable instruction just ends the
// block: replay re-looks-up at that pc and only then latches fetchBroken,
// when fetch actually reaches it.
func (c *Core) sbBuild(off int) int32 {
	var entries []sbEntry
	if n := len(c.sbEntryPool); n > 0 {
		entries = c.sbEntryPool[n-1]
		c.sbEntryPool = c.sbEntryPool[:n-1]
	} else {
		entries = make([]sbEntry, 0, 16)
	}
	pos := off
	for len(entries) < sbMaxEntries && pos < len(c.prog.Code) {
		// Each static instruction is decoded once per run, however many
		// blocks cover it.
		d := c.predecAt(pos)
		if d == nil {
			break
		}
		size := int(d.size)
		pc := c.prog.CodeBase + uint64(pos)

		var e sbEntry
		e.proto.inst = d.inst
		e.proto.pc = pc
		e.proto.npc = pc + uint64(size)
		e.proto.cl = d.cl
		e.proto.sra1, e.proto.sra2, e.proto.sra3 = d.sra1, d.sra2, d.sra3
		e.proto.writesRd = d.writesRd
		e.proto.isLoad, e.proto.isStore = d.isLoad, d.isStore
		e.proto.memWidth = d.memWidth
		for a := pc &^ (cache.LineSize - 1); a < pc+uint64(size); a += cache.LineSize {
			e.lines[e.nlines] = a
			e.nlines++
		}
		if n := len(entries); n > 0 {
			prev := &entries[n-1]
			e.newLine = e.nlines != 1 || e.lines[0] != prev.lines[prev.nlines-1]
		} else {
			e.newLine = true
		}
		op := d.inst.Op
		switch {
		case op == isa.OpHalt:
			e.kind = sbHalt
		case c.cfg.SeMPE && (d.inst.IsSJmp() || d.inst.IsEOSJmp()):
			// SeMPE markers: sJMP must skip prediction and eosJMP is a
			// secure NOP that predecode must mark so rename drains. Without
			// SeMPE both decode as their plain shapes (backward compat) and
			// take the direct-dispatch kinds below.
			e.kind = sbPredecode
		case op.IsBranch():
			e.kind = sbBranch
			e.target = pc + uint64(d.inst.Imm)
		case op == isa.OpJmp:
			e.kind = sbJmp
			e.target = pc + uint64(d.inst.Imm)
		case op == isa.OpJal:
			e.kind = sbJal
			e.target = pc + uint64(d.inst.Imm)
			e.pushRet = d.inst.Rd == isa.LR
		case op.IsControl():
			e.kind = sbPredecode // JALR: dynamic target prediction
		default:
			e.kind = sbSeq
		}
		entries = append(entries, e)
		pos += size
		if e.kind == sbHalt || op.IsJump() {
			break // unconditional transfer / halt always ends the trace
		}
	}
	if len(entries) == 0 {
		return -1
	}
	bi := int32(len(c.sbBlocks))
	c.sbBlocks = append(c.sbBlocks, superblock{entries: entries})
	c.sbIndex[off] = bi
	c.SBStats.Builds++
	// Stamp the build with the next sequence number: a later flush whose
	// boundary seq is older counts it as wrong-path work (the fetch that
	// triggered it was squashed or dropped). The block itself stays cached —
	// static traces are path-independent.
	c.sbBuildSeqs = append(c.sbBuildSeqs, c.seq)
	return bi
}

// sbCountWrongPathBuilds attributes builds stamped younger than boundary to
// wrong-path work. Stamps are appended in seq order, so the wrong-path tail
// is a binary-search truncation; counted stamps are dropped so a build is
// attributed at most once.
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
