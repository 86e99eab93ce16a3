package pipeline

import "repro/internal/isa"

// predec is one pre-decode cache entry. size==0 means not yet decoded;
// size<0 means the bytes at this pc are undecodable (wrong-path fetch).
// Alongside the decoded instruction it caches every piece of per-op
// metadata that is a pure function of the instruction bytes, so neither
// superblock builds nor rename re-derive it per dynamic instruction.
type predec struct {
	inst isa.Inst
	size int8

	cl               isa.Class
	sra1, sra2, sra3 int8 // arch sources for ps1..ps3, sraNone unused
	writesRd         bool
	isLoad, isStore  bool
	memWidth         uint8
}

// fillStatic derives the cached static metadata from d.inst. The source
// mapping mirrors renameOne's historical per-class switch exactly
// (including the default case taking at most the first two SrcRegs).
func fillStatic(d *predec) {
	in := d.inst
	d.cl = in.Op.ClassOf()
	d.sra1, d.sra2, d.sra3 = sraNone, sraNone, sraNone
	d.writesRd = in.WritesRd()
	switch {
	case d.cl == isa.ClassStore:
		d.sra1, d.sra3 = int8(in.Ra), int8(in.Rd) // address base, store data
		d.isStore = true
		d.memWidth = uint8(isa.MemWidth(in.Op))
	case d.cl == isa.ClassLoad:
		d.sra1 = int8(in.Ra)
		d.isLoad = true
		d.memWidth = uint8(isa.MemWidth(in.Op))
	case d.cl == isa.ClassCMov:
		d.sra1, d.sra2 = int8(in.Ra), int8(in.Rb)
		d.sra3 = int8(in.Rd) // old destination value
	case d.cl == isa.ClassBranch:
		d.sra1, d.sra2 = int8(in.Ra), int8(in.Rb)
	case in.Op == isa.OpJalr:
		d.sra1 = int8(in.Ra)
	default:
		var srcs [3]isa.Reg
		ss := in.SrcRegs(srcs[:0])
		if len(ss) > 0 {
			d.sra1 = int8(ss[0])
		}
		if len(ss) > 1 {
			d.sra2 = int8(ss[1])
		}
	}
}

// predecAt returns the pre-decode entry for code offset off, decoding and
// filling it on first touch. A nil return means the bytes are undecodable.
func (c *Core) predecAt(off int) *predec {
	d := &c.decoded[off]
	if d.size == 0 {
		inst, size, err := isa.Decode(c.prog.Code, off)
		if err != nil {
			d.size = -1
		} else {
			d.inst, d.size = inst, int8(size)
			fillStatic(d)
		}
	}
	if d.size < 0 {
		return nil
	}
	return d
}

// fetch fills the fetch buffer for this cycle through the superblock replay
// engine (superblock.go), consulting the IL1 for every distinct cache line
// touched and the branch predictors for control flow. Secure branches are
// never predicted: under SeMPE an sJMP always falls through into the
// not-taken path, so the fetch stream carries no information about the
// secret (and the predictor state is never updated by it). Replay emits the
// per-fetch spec events itself, so arming a watch never changes how fetch
// runs.
func (c *Core) fetch() {
	if c.fetchHalted || c.fetchBroken {
		return
	}
	if c.cycle < c.fetchStallUntil {
		c.Stats.FetchStallCycles++
		return
	}
	c.fetchSuperblock()
}

// predecode resolves the replay entries whose front-end behavior is
// dynamic (sbPredecode): the SeMPE markers, which sbBuild routes here only
// when the core runs SeMPE, and JALR. It sets u's prediction state,
// advances fetchPC, and reports whether the fetch group must end because
// of a predicted-taken transfer.
func (c *Core) predecode(u *uop) bool {
	in := u.inst
	switch {
	case in.IsSJmp():
		u.isSJmp = true
		// No branch-predictor consultation: always fall through to the
		// not-taken SecBlock first.
		u.predTaken = false
		c.fetchPC = u.npc
		return false
	case in.IsEOSJmp():
		u.isEOSJmp = true
		// The jump-back, if any, happens at commit; fetch continues
		// sequentially and is flushed on redirect.
		c.fetchPC = u.npc
		return false
	}
	// JALR.
	u.predTaken = true
	if in.Rd == isa.RZ && in.Ra == isa.LR {
		// Return idiom: predict via the return-address stack.
		if t, ok := c.BP.PopReturn(); ok {
			u.predTarget = t
		} else {
			u.predTarget = u.npc
		}
	} else {
		if t, ok := c.BP.PredictIndirect(u.pc); ok {
			u.predTarget = t
		} else {
			u.predTarget = u.npc
		}
		if in.Rd == isa.LR {
			c.BP.PushReturn(u.npc)
		}
	}
	if c.specWatch != nil {
		c.emitSpec(SpecEvent{Kind: SpecBPLookup, Seq: u.seq, PC: u.pc, Addr: u.predTarget, Taken: true})
	}
	c.fetchPC = u.predTarget
	return true
}

// decode moves predecoded micro-ops into the decode queue. The two buffers
// share one ring (feRing), so the move is a boundary shift, not a copy.
func (c *Core) decode() {
	c.fe.decodeAdvance(c.cfg.DecodeWidth)
}

// rename allocates physical registers and dispatches micro-ops into the
// ROB, issue queue, and load/store queues. Under SeMPE it implements the
// paper's pipeline drains: an sJMP or eosJMP only renames once the ROB is
// empty, and rename stays blocked after an eosJMP until it commits, so the
// instruction window never holds instructions from both paths at once.
func (c *Core) rename() {
	if c.renameBlocked {
		c.Stats.DrainStallCycles++
		return
	}
	if c.cycle < c.renameStallUntil {
		c.Stats.SPMStallCycles++
		return
	}
	arena := c.pool.arena
	secure := c.cfg.SeMPE
	for n := 0; n < c.cfg.RenameWidth && c.fe.decLen() > 0; n++ {
		i := c.fe.frontDec()
		u := &arena[i]
		if secure && (u.isSJmp || u.isEOSJmp) && c.robCount > 0 {
			// Drain: wait until every older instruction has committed.
			c.Stats.DrainStallCycles++
			return
		}
		if !c.renameOne(i, u) {
			return
		}
		c.fe.popDec()
		if secure && u.isEOSJmp {
			// Stay drained until the eosJMP commits and the ArchRS
			// controller has restored register state.
			c.renameBlocked = true
			return
		}
	}
}

// renameOne performs the structural-resource checks, register renaming, and
// dispatch for one micro-op, reporting false (with no state changed) when a
// resource is exhausted and rename must stall this cycle. The per-class
// source analysis was done once at predecode (fillStatic); here it is three
// unconditional rename-map lookups (unused sources read the sraNone/psNone
// sentinels). u must be c.u(i).
func (c *Core) renameOne(i uref, u *uop) bool {
	if c.robCount >= c.cfg.ROBSize {
		return false
	}
	cl := u.cl
	switch cl {
	case isa.ClassSys:
		// NOP, HALT, eosJMP: no issue-queue slot.
	case isa.ClassLoad:
		if len(c.lq) >= c.cfg.LQSize || c.iqCount >= c.cfg.IQSize {
			return false
		}
	case isa.ClassStore:
		if len(c.sq) >= c.cfg.SQSize || c.iqCount >= c.cfg.IQSize {
			return false
		}
	default:
		if c.iqCount >= c.cfg.IQSize {
			return false
		}
	}
	if u.writesRd && len(c.freeList) == 0 {
		return false
	}

	u.ps1 = c.rat[u.sra1]
	u.ps2 = c.rat[u.sra2]
	u.ps3 = c.rat[u.sra3]

	u.pd, u.oldPd = -1, -1
	if u.writesRd {
		rd := u.inst.Rd
		u.hasDest = true
		u.oldPd = c.rat[rd]
		u.pd = c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
		c.physReady[u.pd] = false
		c.rat[rd] = u.pd
	}

	// ROB allocation (the ring size is not a power of two, so wrap with a
	// compare instead of a modulo — this is per-rename hot-path arithmetic).
	pos := c.robHead + c.robCount
	if pos >= c.cfg.ROBSize {
		pos -= c.cfg.ROBSize
	}
	c.rob[pos] = i
	c.robCount++

	switch cl {
	case isa.ClassSys:
		// NOP, HALT, eosJMP: nothing to execute.
		u.completed = true
		u.doneCycle = c.cycle
		return true
	case isa.ClassLoad:
		c.lq = append(c.lq, i)
	case isa.ClassStore:
		c.sq = append(c.sq, i)
	}
	c.iqCount++

	// Wakeup registration: count pending sources and subscribe to their
	// producing registers; an op with none is ready immediately. The psNone
	// sentinel is always ready, so unused sources take no branch here.
	nr := int8(0)
	if !c.physReady[u.ps1] {
		nr++
		c.regWait(u.ps1, i, u.seq)
	}
	if !c.physReady[u.ps2] {
		nr++
		c.regWait(u.ps2, i, u.seq)
	}
	if !c.physReady[u.ps3] {
		nr++
		c.regWait(u.ps3, i, u.seq)
	}
	u.notReady = nr
	if nr == 0 {
		c.readyInsert(i)
	}
	return true
}

// flushAfter squashes every micro-op younger than u, repairs the rename map
// by walking the ROB from youngest to oldest, and redirects fetch to target.
// Cleanup of the scheduler structures is squash-aware rather than per-uop:
// the ready list and the memory queues are seq-sorted and every squashed op
// is younger than u, so the squashed entries form a suffix that a binary
// search truncates in one step; squashed ops still in flight in the
// completion calendar are cancelled out of their wheel buckets in one pass
// per touched bucket, returning their arena slots eagerly instead of leaving
// them filed until the bucket's cycle comes around.
// cause tags the flush for the wrong-path accounting (Stats.FlushMispredicts
// vs FlushOverflows — secure redirects never come through here, they flush
// only the never-renamed front end via redirectFrontEnd at commitEOSJmp).
func (c *Core) flushAfter(u *uop, target uint64, cause FlushCause) {
	c.Stats.Flushes++
	switch cause {
	case FlushMispredict:
		c.Stats.FlushMispredicts++
	case FlushOverflow:
		c.Stats.FlushOverflows++
	}
	boundary := u.seq
	arena := c.pool.arena
	// Walk the ROB backwards, undoing rename state. Ring contents beyond the
	// live window are never read, so the vacated slots need no nilRef store.
	// Ops not in flight in the calendar lose their last reference here (the
	// seq-sorted queues are truncated below) and are recycled immediately;
	// in-flight ops are collected for the calendar cancellation pass.
	c.squashTmp = c.squashTmp[:0]
	nsq := uint64(0)
	for c.robCount > 0 {
		pos := c.robHead + c.robCount - 1
		if pos >= c.cfg.ROBSize {
			pos -= c.cfg.ROBSize
		}
		yi := c.rob[pos]
		y := &arena[yi]
		if y.seq <= boundary {
			break
		}
		if y.hasDest {
			c.rat[y.inst.Rd] = y.oldPd
			c.freeList = append(c.freeList, y.pd)
		}
		y.squashed = true
		c.robCount--
		nsq++
		if y.issued && !y.completed {
			c.squashTmp = append(c.squashTmp, yi)
		} else {
			if !y.issued && y.cl != isa.ClassSys {
				c.iqCount--
			}
			c.pool.put(yi)
		}
	}
	// Bulk-cancel the squashed suffix of each seq-sorted structure. The
	// recycled slots above still hold their seq values (put does not clear),
	// so the boundary search stays valid until the next pool get.
	c.readyCount = seqBoundary(arena, c.readyList[:c.readyCount], boundary)
	c.lq = c.lq[:seqBoundary(arena, c.lq, boundary)]
	c.sq = c.sq[:seqBoundary(arena, c.sq, boundary)]
	// Cancel in-flight squashed ops out of the completion calendar: one
	// filtering pass per touched wheel bucket (repeat visits walk an
	// already-clean chain and remove nothing). Ops whose bucket was already
	// drained into writeback's due list this cycle are not in any chain;
	// writeback reclaims those when the due loop reaches them. Waiter lists
	// are still cleaned lazily: wakePreg drops squashed entries by seq check.
	overflowTouched := false
	for _, yi := range c.squashTmp {
		y := &arena[yi]
		if d := y.doneCycle - c.cycle; d <= c.calMask {
			b := y.doneCycle & c.calMask
			if c.calBuckets[b] >= 0 {
				c.calCancelBucket(b)
			}
		} else {
			overflowTouched = true
		}
	}
	if overflowTouched {
		keep := c.calOverflow[:0]
		for _, i := range c.calOverflow {
			if arena[i].squashed {
				c.pool.put(i)
				c.execCount--
			} else {
				keep = append(keep, i)
			}
		}
		c.calOverflow = keep
	}
	dropped := c.redirectFrontEnd(target)
	c.sbCountWrongPathBuilds(boundary)
	c.Stats.SquashedUops += nsq
	c.SBStats.WrongPathReplays += nsq
	c.Stats.WrongPathFetches += nsq + dropped
	if c.specWatch != nil {
		c.emitSpec(SpecEvent{Kind: SpecFlush, Seq: u.seq, PC: u.pc, Addr: target, Cause: cause,
			SquashedROB: uint32(nsq), DroppedFE: uint32(dropped)})
	}
}

// seqBoundary returns the number of leading entries of q with seq <= boundary.
// q must be seq-sorted ascending — true for readyList (sorted insertion) and
// the memory queues (appended in rename order).
func seqBoundary(arena []uop, q []uref, boundary uint64) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arena[q[mid]].seq <= boundary {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// calCancelBucket rebuilds wheel bucket b's chain without its squashed ops,
// recycling their arena slots. The calendar held the last live reference to
// each (flushAfter already truncated every other structure).
func (c *Core) calCancelBucket(b uint64) {
	arena := c.pool.arena
	head := int32(-1)
	n := c.calBuckets[b]
	for n >= 0 {
		next := c.calNext[n]
		if arena[n].squashed {
			c.pool.put(n)
			c.execCount--
		} else {
			c.calNext[n] = head
			head = n
		}
		n = next
	}
	// The surviving chain was rebuilt in reverse; reverse it back so drain
	// order (and therefore the due list's near-sortedness) is unchanged.
	n, head = head, -1
	for n >= 0 {
		next := c.calNext[n]
		c.calNext[n] = head
		head = n
		n = next
	}
	c.calBuckets[b] = head
}

// redirectFrontEnd clears all fetched-but-not-renamed state and restarts
// fetch at target after the redirect penalty, returning how many fetched
// micro-ops it dropped (wrong-path accounting). Drained micro-ops were never
// renamed, so the front-end buffers hold their only references and they can
// be recycled directly.
//
// The superblock replay cursor survives the redirect by re-keying on the
// target pc: when a cached block already starts there, the next fetch group
// resumes replay without the validate-miss/re-lookup step. A redirect into
// unknown territory (no block at target yet, or target outside the code
// image) drops the cursor and the next fetch builds or re-looks-up as usual.
// Either way replay state never carries stale context across the redirect —
// the per-step pc check in fetchSuperblock remains the only validity rule.
func (c *Core) redirectFrontEnd(target uint64) uint64 {
	var dropped uint64
	for !c.fe.empty() {
		c.pool.put(c.fe.popAny())
		dropped++
	}
	c.SBStats.WrongPathReplays += dropped
	c.fetchPC = target
	c.fetchHalted = false
	c.fetchBroken = false
	c.fetchStallUntil = c.cycle + uint64(c.cfg.RedirectPenalty)
	if c.sbCur >= 0 {
		c.sbCur = -1
		if target >= c.prog.CodeBase && target < c.prog.CodeEnd() {
			if bi := c.sbIndex[target-c.prog.CodeBase]; bi >= 0 {
				c.sbCur, c.sbCurIdx = bi, 0
				c.SBStats.ReKeys++
			}
		}
		if c.sbCur < 0 {
			c.SBStats.Invalidate++
		}
	}
	return dropped
}
