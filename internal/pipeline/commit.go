package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sempe"
)

// retire commits completed micro-ops from the ROB head, up to RetireWidth
// per cycle. Commit is where the SeMPE controller acts: an sJMP pushes its
// jbTable entry and triggers the initial ArchRS snapshot; an eosJMP either
// jumps back into the taken path (first commit) or restores the final
// register state and pops the entry (second commit). Doing this work at
// commit, after a drain, is what makes the mechanism simple: the committed
// register file is the architectural state by construction.
func (c *Core) retire() error {
	arena := c.pool.arena
	for n := 0; n < c.cfg.RetireWidth && c.robCount > 0; n++ {
		i := c.rob[c.robHead]
		u := &arena[i]
		if !u.completed {
			return nil
		}

		// Observable commit trace.
		c.commitDigest = fnvMix(c.commitDigest, u.pc)
		if c.TraceCommits {
			c.CommitPCs = append(c.CommitPCs, u.pc)
		}

		// Architectural register update.
		if u.hasDest {
			rd := u.inst.Rd
			c.archRegs[rd] = c.physVal[u.pd]
			c.freeList = append(c.freeList, u.oldPd)
			c.markModified(rd)
		}

		// Memory commit. The committing op is the oldest in its memory
		// queue (queues are program-ordered and the ROB head is the oldest
		// in-flight op), so removal is a head pop.
		if u.isStore {
			if u.memWidth == 8 {
				c.mem.Write64(u.memAddr, u.storeData)
			} else {
				c.mem.Write8(u.memAddr, byte(u.storeData))
			}
			if c.specWatch != nil {
				// Attribute commit-time DL1 fills to the retiring store.
				c.specPC, c.specSeq = u.pc, u.seq
			}
			c.Hier.DL1.AccessPC(u.pc, u.memAddr, true)
			c.memDigest = fnvMix(c.memDigest, u.memAddr<<1|1)
			if c.TraceCommits {
				c.MemTrace = append(c.MemTrace, u.memAddr<<1|1)
			}
			if c.MemWatch != nil {
				c.MemWatch(u.memAddr, true, c.cycle)
			}
			c.sq = removeHead(c.sq, i)
		}
		if u.isLoad {
			c.memDigest = fnvMix(c.memDigest, u.memAddr<<1)
			if c.TraceCommits {
				c.MemTrace = append(c.MemTrace, u.memAddr<<1)
			}
			if c.MemWatch != nil {
				c.MemWatch(u.memAddr, false, c.cycle)
			}
			c.lq = removeHead(c.lq, i)
		}

		// Predictor training. sJMP never touches the predictor: that is the
		// SeMPE rule that closes the branch-predictor channel.
		switch {
		case u.isSJmp:
			// handled below
		case u.cl == isa.ClassBranch:
			c.Stats.Branches++
			c.BP.UpdateBranch(u.pc, u.actualTaken)
			if c.specWatch != nil {
				c.emitSpec(SpecEvent{Kind: SpecBPUpdate, Seq: u.seq, PC: u.pc, Addr: u.actualTarget,
					Disp: DispCommitted, Taken: u.actualTaken, Mispredict: u.mispredict})
			}
		case u.inst.Op == isa.OpJalr:
			c.Stats.IndirectJumps++
			if !(u.inst.Rd == isa.RZ && u.inst.Ra == isa.LR) {
				c.BP.UpdateIndirect(u.pc, u.actualTarget)
				if c.specWatch != nil {
					c.emitSpec(SpecEvent{Kind: SpecBPUpdate, Seq: u.seq, PC: u.pc, Addr: u.actualTarget,
						Disp: DispCommitted, Taken: true, Mispredict: u.mispredict})
				}
			}
		}

		// Pop from the ROB before any controller action so that the
		// controller sees an empty window (drains guarantee it). Ring
		// contents beyond the live window are never read, so the vacated
		// slot needs no nilRef store.
		c.robHead++
		if c.robHead >= c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robCount--
		c.Stats.Insts++
		c.lastCommitCycle = c.cycle
		if c.specWatch != nil && specWatched(u) {
			// Settles the disposition of every earlier event with this seq;
			// emitted before any controller redirect so a recorded stream
			// resolves the op before the flush it may trigger.
			c.emitSpec(SpecEvent{Kind: SpecCommit, Seq: u.seq, PC: u.pc, Disp: DispCommitted})
		}

		switch {
		case u.isSJmp:
			c.Stats.Branches++
			c.Stats.SJmps++
			err := c.commitSJmp(u)
			c.pool.put(i)
			return err // snapshot serializes the rest of the cycle
		case u.isEOSJmp:
			c.Stats.EOSJmps++
			err := c.commitEOSJmp(u)
			c.pool.put(i)
			return err
		case u.inst.Op == isa.OpHalt:
			c.halted = true
			c.pool.put(i)
			return nil
		}
		// The ROB held the last reference (mem ops left lq/sq above, and a
		// committed op was dropped from exec when it completed).
		c.pool.put(i)
	}
	return nil
}

// commitSJmp pushes the jbTable entry (Valid set: the destination address
// was computed at execute and is written at commit, the paper's step 2) and
// captures the initial ArchRS snapshot into the SPM. On nesting overflow it
// either faults or — under the permissive policy — downgrades the region to
// an ordinary single-path branch.
func (c *Core) commitSJmp(u *uop) error {
	if c.ovfDepth > 0 || c.JB.Depth() >= c.JB.Cap() {
		if !c.cfg.OverflowNonSecure {
			return fmt.Errorf("pipeline: at pc=%#x: %w (depth %d)", u.pc, sempe.ErrOverflow, c.JB.Depth())
		}
		// Downgrade: behave like a resolved branch. Fetch already went down
		// the fall-through; a taken outcome must redirect, which costs a
		// flush exactly like a misprediction.
		c.Stats.NestOverflows++
		c.ovfDepth++
		if u.actualTaken {
			c.flushAfter(u, u.actualTarget, FlushOverflow)
		}
		return nil
	}
	if err := c.JB.Push(u.actualTarget, u.actualTaken); err != nil {
		return fmt.Errorf("pipeline: at pc=%#x: %w", u.pc, err)
	}
	if c.JB.Depth() > c.Stats.MaxNestDepth {
		c.Stats.MaxNestDepth = c.JB.Depth()
	}
	stall, err := c.SPM.PushInitial(&c.archRegs)
	if err != nil {
		return fmt.Errorf("pipeline: at pc=%#x: %w", u.pc, err)
	}
	// The register save serializes rename (Fig. 6: "Initial Register save"
	// occupies the SPM after pipeline drain 1).
	c.renameStallUntil = c.cycle + uint64(stall)
	return nil
}

// commitEOSJmp implements both visits to the join-point marker.
func (c *Core) commitEOSJmp(u *uop) error {
	if c.ovfDepth > 0 {
		// Join marker of a downgraded (non-secure) region: a NOP. LIFO
		// nesting guarantees the innermost live region is the downgraded
		// one, so this marker is its single visit.
		c.ovfDepth--
		c.renameBlocked = false
		return nil
	}
	top, err := c.JB.Top()
	if err != nil {
		return fmt.Errorf("pipeline: eosJMP at pc=%#x: %w", u.pc, err)
	}
	if !top.JB {
		// First commit: save NT-modified registers, restore the initial
		// snapshot, set the jb bit, and jump back into the taken path.
		restore, mask, stall := c.SPM.EndNTPath(&c.archRegs)
		c.applyRegs(&restore, mask)
		top.JB = true
		c.Stats.SecRedirects++
		c.Stats.FlushSecRedirects++
		c.renameBlocked = false
		// The drain guarantees an empty window, so a secure redirect only
		// drops never-renamed front-end work — it squashes nothing in the ROB.
		dropped := c.redirectFrontEnd(top.Target)
		c.sbCountWrongPathBuilds(u.seq)
		c.Stats.WrongPathFetches += dropped
		if c.specWatch != nil {
			c.emitSpec(SpecEvent{Kind: SpecFlush, Seq: u.seq, PC: u.pc, Addr: top.Target,
				Cause: FlushSecureRedirect, DroppedFE: uint32(dropped)})
		}
		c.renameStallUntil = c.cycle + uint64(stall)
		return nil
	}
	// Second commit: the secure region is complete. Restore the correct
	// final values for every register modified in either path; the SPM
	// traffic depends only on the union of the modified sets, never on the
	// secret outcome.
	final, mask, stall := c.SPM.EndTPath(top.Taken, &c.archRegs)
	c.applyRegs(&final, mask)
	if err := c.JB.Pop(); err != nil {
		return err
	}
	c.renameBlocked = false
	c.renameStallUntil = c.cycle + uint64(stall)
	return nil
}

// applyRegs writes restored architectural values through to the committed
// register file and the physical registers currently mapped by the RAT. The
// ROB is empty here (the eosJMP drained the window), so the speculative and
// committed maps agree.
func (c *Core) applyRegs(vals *[isa.NumArchRegs]uint64, mask uint64) {
	for r := 0; r < isa.NumArchRegs; r++ {
		if mask&(1<<uint(r)) == 0 {
			continue
		}
		c.archRegs[r] = vals[r]
		p := c.rat[r]
		c.physVal[p] = vals[r]
		c.physReady[p] = true
		c.wakePreg(p)
	}
}

// markModified attributes a committed register write to the per-path
// modified bit-vectors of every live SecBlock nesting level.
func (c *Core) markModified(rd isa.Reg) {
	if !c.cfg.SeMPE || c.JB.Depth() == 0 {
		return
	}
	c.inTScratch = c.JB.InTPathFlags(c.inTScratch)
	c.SPM.MarkModified(rd, c.inTScratch)
}

// removeHead drops i from q. The committing op is q's head in every
// reachable state (memory queues are program-ordered); the scan fallback
// keeps the function total if that invariant is ever disturbed.
func removeHead(q []uref, i uref) []uref {
	if len(q) > 0 && q[0] == i {
		copy(q, q[1:])
		return q[:len(q)-1]
	}
	out := q[:0]
	for _, v := range q {
		if v != i {
			out = append(out, v)
		}
	}
	return out
}
