package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Forking a run. Two runs of programs that differ only in data their
// prefix never branches or addresses on execute the same instructions with
// the same timing up to the point where they diverge, so the attack lab's
// calibration pairs simulate that prefix once: RunToFork stops the first
// run at a drained cycle inside a window the program marks, and Fork copies
// the stopped core into a second one and hands it the second program with
// the architectural state the functional emulator reached on it. DESIGN.md
// ("Forking a calibration pair") argues why a drained cycle makes the copy
// exact and what the caller must check.

// RunToFork simulates like Run but stops at the first cycle boundary at
// which the window is drained (see drained) and fetch stands in [lo, hi],
// reporting true; a run that halts or fails first reports false. The caller
// finishes a stopped run with Run, or copies it into another core with
// Fork. Published counters count the stopped prefix once.
func (c *Core) RunToFork(lo, hi uint64) (bool, error) {
	return c.run(lo, hi)
}

// drained reports whether nothing is in flight and no secure region is
// open: the ROB (and with it the issue and memory queues), the completion
// calendar and the front-end buffers are empty, and fetch is neither halted
// nor broken. At such a boundary the committed architectural state is the
// whole of the machine's value state, which is what makes Fork exact.
func (c *Core) drained() bool {
	return c.robCount == 0 && c.execCount == 0 && c.fe.empty() &&
		c.JB.Depth() == 0 && c.ovfDepth == 0 && !c.renameBlocked &&
		!c.halted && !c.fetchHalted && !c.fetchBroken
}

// Fork makes c a copy of src, which RunToFork stopped at a drained cycle,
// that continues on prog with regs and m as its architectural state. src
// keeps running its own program unchanged. c takes every component of src
// except the caller's hooks (MemWatch and the spec watch stay c's own, and
// neither core may have a spec watch armed) and except the memory image:
// c adopts m and returns the image it held before, for the caller to
// recycle. prog must have src's code size, base and entry; the decode
// entries c inherits are dropped wherever prog's code bytes differ from
// src's program. The published-counter base is inherited too, so the
// prefix src already published is not counted again.
func (c *Core) Fork(src *Core, prog *isa.Program, regs *[isa.NumArchRegs]uint64, m *mem.Memory) *mem.Memory {
	switch {
	case c.cfg != src.cfg:
		panic("pipeline: Fork across configurations")
	case !src.drained():
		panic(fmt.Sprintf("pipeline: Fork from an undrained core at cycle %d", src.cycle))
	case c.specWatch != nil || src.specWatch != nil:
		panic("pipeline: Fork with a spec watch armed")
	case len(prog.Code) != len(src.prog.Code) || prog.CodeBase != src.prog.CodeBase || prog.Entry != src.prog.Entry:
		panic("pipeline: Fork onto a program of another shape")
	}
	c.copyFrom(src)
	c.prog = prog
	c.archRegs = *regs
	for r := 0; r < isa.NumArchRegs; r++ {
		c.physVal[c.rat[r]] = regs[r]
	}
	old := c.mem
	c.mem = m
	c.dropChangedDecodes(src.prog.Code, prog.Code)
	return old
}

// copyFrom copies src's microarchitectural state, counters and committed
// state into c. src is drained, so everything that holds in-flight work is
// empty in both: the ROB, issue and memory queues, completion calendar and
// front-end buffers are copied as empty, every uop arena slot is free, and
// the wakeup network holds only registrations of squashed ops, which can
// never match again (an op's seq is unique and its slot keeps the squashed
// mark until reuse), so c starts with an empty one.
func (c *Core) copyFrom(src *Core) {
	c.prog = src.prog
	c.Hier.CopyFrom(src.Hier)
	c.BP.CopyFrom(src.BP)
	c.JB.CopyFrom(src.JB)
	c.SPM.CopyFrom(src.SPM)
	if c.stridePF != nil {
		c.stridePF.CopyFrom(src.stridePF)
	}
	if c.streamPF != nil {
		c.streamPF.CopyFrom(src.streamPF)
	}

	c.cycle, c.seq = src.cycle, src.seq
	c.archRegs = src.archRegs
	c.halted = false
	c.rat = src.rat
	copy(c.physVal, src.physVal)
	copy(c.physReady, src.physReady)
	c.freeList = append(c.freeList[:0], src.freeList...)

	c.robHead, c.robCount = src.robHead, 0
	c.iqCount, c.readyCount = 0, 0
	for p := range c.waitHead {
		c.waitHead[p] = -1
	}
	c.waitNodes = c.waitNodes[:0]
	c.waitFreeHead = -1
	c.lq, c.sq = c.lq[:0], c.sq[:0]
	copy(c.calBuckets, src.calBuckets)
	copy(c.calOcc, src.calOcc)
	c.execCount = 0
	c.wbScratch = c.wbScratch[:0]

	c.fetchPC = src.fetchPC
	c.fetchStallUntil = src.fetchStallUntil
	c.fetchHalted, c.fetchBroken = false, false
	c.fe.head, c.fe.nDec, c.fe.nFetch = src.fe.head, 0, 0

	c.sbIndex = append(c.sbIndex[:0], src.sbIndex...)
	c.sbEntries = append(c.sbEntries[:0], src.sbEntries...)
	c.sbBuildSeqs = append(c.sbBuildSeqs[:0], src.sbBuildSeqs...)
	c.SBStats = src.SBStats

	c.pool.reset()
	c.squashTmp = c.squashTmp[:0]

	c.renameBlocked = false
	c.renameStallUntil = src.renameStallUntil
	c.ovfDepth = 0

	c.commitDigest, c.memDigest = src.commitDigest, src.memDigest
	c.lastCommitCycle = src.lastCommitCycle
	c.Stats = src.Stats

	c.specPC, c.specSeq = 0, 0
	c.specEmitted = src.specEmitted
	c.specPub = src.specPub
	c.skipped = src.skipped
}

// dropChangedDecodes returns every decode-cache offset whose decode window
// (isa.MaxInstLen bytes) covers a byte where now differs from was to the
// undecoded state, so fetch decodes it afresh from now. A dropped entry
// stays in sbEntries unreferenced.
func (c *Core) dropChangedDecodes(was, now []byte) {
	for off := range now {
		if now[off] == was[off] {
			continue
		}
		for o := max(0, off-isa.MaxInstLen+1); o <= off; o++ {
			if c.sbIndex[o] != sbUndecoded {
				c.sbIndex[o] = sbUndecoded
			}
		}
	}
}
