package pipeline

import (
	"repro/internal/isa"
)

// Reset puts the core into its power-on state for prog on a zeroed memory
// image, without reallocating any of the core's structures: pipeline rings,
// ROB, scheduler, completion calendar, uop arena, decode cache, predictors,
// caches, prefetchers, SPM/jbTable, and the memory image are all recycled in
// place. New allocates and then calls
// Reset, so Reset is the only initialization path. The attack and experiment
// drivers pool cores per configuration and Reset them per trial, which
// removes per-run construction (the dominant flat cost of high-trial
// sweeps) from the hot loop; TestCoreResetDifferential pins that a core
// dirtied by any run resets to the state of a new one.
//
// Caller-owned observability state (the MemWatch hook and an explicitly
// armed spec watch) is preserved. SBStats is zeroed — harvest it before
// Reset when accumulating across runs.
func (c *Core) Reset(prog *isa.Program) {
	// Memory image: zero in place and reload (zeroed pages are
	// indistinguishable from absent ones).
	c.mem.Reset()
	c.mem.Load(prog)
	c.prog = prog

	// Attached components.
	c.Hier.Reset()
	c.BP.Reset()
	c.JB.Reset()
	c.SPM.Reset()
	if c.stridePF != nil {
		c.stridePF.Reset()
	}
	if c.streamPF != nil {
		c.streamPF.Reset()
	}

	c.cycle, c.seq = 0, 0
	c.archRegs = [isa.NumArchRegs]uint64{}
	c.archRegs[isa.SP] = isa.DefaultStackTop
	c.halted = false

	// Rename state: identity map, architectural registers live in physical
	// r0..r(N-1), everything above is free (pushed in ascending order).
	// rat, physVal, and physReady also pin their sentinel slots (see the
	// rat field comment).
	clear(c.physVal)
	clear(c.physReady)
	for r := 0; r < isa.NumArchRegs; r++ {
		c.rat[r] = int16(r)
		c.physVal[r] = c.archRegs[r]
		c.physReady[r] = true
	}
	c.rat[sraNone] = c.psNone()
	c.physReady[c.psNone()] = true
	c.freeList = c.freeList[:0]
	for p := isa.NumArchRegs; p < c.cfg.PhysRegs; p++ {
		c.freeList = append(c.freeList, int16(p))
	}

	// ROB and scheduler. Ring contents beyond the live window are never
	// read, so resetting the head/count suffices.
	c.robHead, c.robCount = 0, 0
	c.iqCount, c.readyCount = 0, 0
	for p := range c.waitHead {
		c.waitHead[p] = -1
	}
	c.waitNodes = c.waitNodes[:0]
	c.waitFreeHead = -1
	c.lq = c.lq[:0]
	c.sq = c.sq[:0]

	// Completion calendar: all buckets empty. calNext entries are only read
	// by chain walks from a bucket head, so stale links are unreachable.
	for i := range c.calBuckets {
		c.calBuckets[i] = -1
	}
	clear(c.calOcc)
	c.execCount = 0
	c.wbScratch = c.wbScratch[:0]

	// Front end.
	c.fetchPC = prog.Entry
	c.fetchStallUntil = 0
	c.fetchHalted, c.fetchBroken = false, false
	c.fe.head, c.fe.nDec, c.fe.nFetch = 0, 0, 0

	// Decode cache: no entry survives into the next program.
	c.sbEntries = c.sbEntries[:0]
	if cap(c.sbIndex) < len(prog.Code) {
		c.sbIndex = make([]int32, len(prog.Code))
	}
	c.sbIndex = c.sbIndex[:len(prog.Code)]
	for i := range c.sbIndex {
		c.sbIndex[i] = sbUndecoded
	}
	c.sbBuildSeqs = c.sbBuildSeqs[:0]
	c.SBStats = SuperblockStats{}

	// Micro-op recycling: every arena slot returns to the free list, lowest
	// index on top, the order a fresh core hands slots out in.
	c.pool.reset()
	c.squashTmp = c.squashTmp[:0]

	// SeMPE sequencing.
	c.renameBlocked = false
	c.renameStallUntil = 0
	c.ovfDepth = 0

	c.commitDigest = isa.DigestSeed
	c.memDigest = isa.DigestSeed
	c.lastCommitCycle = 0
	c.Stats = Stats{}

	// Spec-watch state. A caller-armed hook is preserved like MemWatch; a
	// hook picked up from the process default (or no hook at all) re-reads
	// the default. The published
	// counter snapshot re-bases with the Stats and SBStats wipes; harvest
	// the global counters before Reset when accumulating across runs.
	if c.specFromDefault || c.specWatch == nil {
		c.armSpecDefault()
	}
	c.specPC, c.specSeq = 0, 0
	c.specEmitted = 0
	c.specPub = SpecCounters{}
	c.skipped = 0
}
