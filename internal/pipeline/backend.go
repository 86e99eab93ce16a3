package pipeline

import (
	"repro/internal/isa"
)

// waitNode is one issue-queue wakeup registration: the micro-op in slot ref
// (validated by seq, so a recycled slot or a squashed op is skipped lazily)
// is waiting for some physical register to become ready. Nodes live in a
// flat index-linked pool — like the uop arena, the whole wait network is
// pointer-free, so registration and wakeup incur no GC write barriers.
type waitNode struct {
	seq  uint64
	ref  uref
	next int32 // next node in this register's chain, -1 ends it
}

// regWait pushes a wakeup registration for micro-op i onto register p's
// waiter chain. Free nodes are chained through their next field
// (waitFreeHead), so recycling touches no slice headers — and therefore no
// GC write barriers — on the per-instruction wakeup traffic.
func (c *Core) regWait(p int16, i uref, seq uint64) {
	n := c.waitFreeHead
	if n >= 0 {
		c.waitFreeHead = c.waitNodes[n].next
	} else {
		n = int32(len(c.waitNodes))
		c.waitNodes = append(c.waitNodes, waitNode{})
	}
	nd := &c.waitNodes[n]
	nd.ref, nd.seq = i, seq
	nd.next = c.waitHead[p]
	c.waitHead[p] = n
}

// wakePreg delivers the ready event for physical register p to every
// registered waiter: each live waiter's pending-source count drops by one
// (an op waiting twice on p registered twice), and ops that reach zero
// enter the ready list. Stale registrations — squashed ops, or slots since
// recycled to a different micro-op — fail the seq check and are dropped.
func (c *Core) wakePreg(p int16) {
	n := c.waitHead[p]
	if n < 0 {
		return
	}
	c.waitHead[p] = -1
	arena := c.pool.arena
	nodes := c.waitNodes
	for n >= 0 {
		nd := &nodes[n]
		next := nd.next
		u := &arena[nd.ref]
		if u.seq == nd.seq && !u.squashed {
			u.notReady--
			if u.notReady == 0 {
				c.readyInsert(nd.ref)
			}
		}
		nd.next = c.waitFreeHead
		c.waitFreeHead = n
		n = next
	}
}

// readyInsert adds i to readyList keeping it sorted by seq, so issue always
// selects oldest-first — the same order the full queue scan produced. The
// buffer is preallocated at IQSize (readyCount can never exceed issue-queue
// occupancy), so insertion writes no slice header.
func (c *Core) readyInsert(i uref) {
	arena := c.pool.arena
	s := arena[i].seq
	rl := c.readyList
	j := c.readyCount
	for j > 0 && arena[rl[j-1]].seq > s {
		rl[j] = rl[j-1]
		j--
	}
	rl[j] = i
	c.readyCount++
}

// issue selects ready micro-ops (oldest first, up to IssueWidth and the
// per-class functional-unit limits), reads their operands, computes
// results, and schedules completion. Operand readiness is maintained
// event-driven (see wakePreg), so only genuinely ready work is visited:
// entries still here after a pass were held back by functional-unit caps or
// memory disambiguation, which are re-evaluated each cycle just as the full
// scan did.
func (c *Core) issue() {
	if c.readyCount == 0 {
		return
	}
	issued := 0
	// Remaining per-class functional-unit slots this cycle, counted down so
	// the inner loop compares against zero instead of re-loading config.
	alu, muldiv := c.cfg.NumALU, c.cfg.NumMulDiv
	load, store, branch := c.cfg.NumLoad, c.cfg.NumStore, c.cfg.NumBranch
	width := c.cfg.IssueWidth
	arena := c.pool.arena
	rl := c.readyList
	kept := 0
	for idx := 0; idx < c.readyCount; idx++ {
		i := rl[idx]
		if issued >= width {
			rl[kept] = i
			kept++
			continue
		}
		u := &arena[i]
		var ok bool
		switch u.cl {
		case isa.ClassALU, isa.ClassCMov:
			if alu > 0 {
				alu--
				ok = true
			}
		case isa.ClassMul, isa.ClassDiv:
			if muldiv > 0 {
				muldiv--
				ok = true
			}
		case isa.ClassLoad:
			if load > 0 && c.loadCanExecute(u) {
				load--
				ok = true
			}
		case isa.ClassStore:
			if store > 0 {
				store--
				ok = true
			}
		case isa.ClassBranch, isa.ClassJump:
			if branch > 0 {
				branch--
				ok = true
			}
		}
		if !ok {
			rl[kept] = i
			kept++
			continue
		}
		c.execute(i, u)
		issued++
	}
	c.readyCount = kept
}

// execute computes u's result and schedules its completion. u must be
// c.u(i); the caller passes the pointer it already resolved. Unused sources
// read the psNone sentinel (always zero), so no per-operand branch.
func (c *Core) execute(i uref, u *uop) {
	u.issued = true
	c.iqCount--
	in := u.inst
	a := c.physVal[u.ps1]
	b := c.physVal[u.ps2]
	old := c.physVal[u.ps3]

	spec := c.specWatch != nil && specWatched(u)
	if spec {
		c.emitSpec(SpecEvent{Kind: SpecIssue, Seq: u.seq, PC: u.pc})
	}

	switch u.cl {
	case isa.ClassBranch:
		u.actualTaken = isa.BranchTaken(in.Op, a, b)
		u.actualTarget = u.pc + uint64(in.Imm)
		if !u.actualTaken {
			u.actualTarget = u.npc
		}
		if u.isSJmp {
			// sJMP never redirects at execute: the fall-through (NT) path is
			// architecturally first, and the commit-time controller uses the
			// computed target. The taken target is stored regardless of the
			// outcome so jbTable contents never depend on the secret's
			// data-path timing.
			u.actualTarget = u.pc + uint64(in.Imm)
			u.mispredict = false
		} else {
			predPC := u.npc
			if u.predTaken {
				predPC = u.predTarget
			}
			u.mispredict = u.actualTarget != predPC
		}
		if spec {
			c.emitSpec(SpecEvent{Kind: SpecBranchExec, Seq: u.seq, PC: u.pc, Addr: u.actualTarget,
				Taken: u.actualTaken, Mispredict: u.mispredict})
		}
		u.doneCycle = c.cycle + uint64(c.cfg.LatBranch)
	case isa.ClassJump:
		switch in.Op {
		case isa.OpJmp:
			u.actualTarget = u.pc + uint64(in.Imm)
		case isa.OpJal:
			u.actualTarget = u.pc + uint64(in.Imm)
			u.result = u.npc
		case isa.OpJalr:
			u.actualTarget = a + uint64(in.Imm)
			u.result = u.npc
		}
		u.actualTaken = true
		u.mispredict = u.actualTarget != u.predTarget
		if spec {
			c.emitSpec(SpecEvent{Kind: SpecBranchExec, Seq: u.seq, PC: u.pc, Addr: u.actualTarget,
				Taken: true, Mispredict: u.mispredict})
		}
		u.doneCycle = c.cycle + uint64(c.cfg.LatBranch)
	case isa.ClassLoad:
		u.memAddr = isa.MemAddr(in, a)
		if spec {
			// Attribute DL1/L2 fills (and triggered prefetches) to this load.
			c.specPC, c.specSeq = u.pc, u.seq
		}
		lat, forwarded, val := c.loadAccess(u)
		u.result = val
		_ = forwarded
		if spec {
			c.emitSpec(SpecEvent{Kind: SpecMemExec, Seq: u.seq, PC: u.pc, Addr: u.memAddr, Lat: uint16(lat)})
		}
		u.doneCycle = c.cycle + uint64(c.cfg.LatAGU+lat)
	case isa.ClassStore:
		u.memAddr = isa.MemAddr(in, a)
		u.storeData = old // ps3 carries the data register
		if spec {
			c.emitSpec(SpecEvent{Kind: SpecMemExec, Seq: u.seq, PC: u.pc, Addr: u.memAddr, Write: true})
		}
		u.doneCycle = c.cycle + uint64(c.cfg.LatAGU)
	case isa.ClassMul:
		u.result, _ = isa.EvalALU(in, a, b, old)
		u.doneCycle = c.cycle + uint64(c.cfg.LatMul)
	case isa.ClassDiv:
		u.result, _ = isa.EvalALU(in, a, b, old)
		u.doneCycle = c.cycle + uint64(c.cfg.LatDiv)
	default:
		u.result, _ = isa.EvalALU(in, a, b, old)
		u.doneCycle = c.cycle + uint64(c.cfg.LatALU)
	}
	// File into the completion calendar. calNext trails the arena lazily;
	// any slot beyond its length has never been filed.
	if int(i) >= len(c.calNext) {
		for len(c.calNext) < len(c.pool.arena) {
			c.calNext = append(c.calNext, -1)
		}
	}
	slot := u.doneCycle & c.calMask
	c.calNext[i] = c.calBuckets[slot]
	c.calBuckets[slot] = i
	c.calOcc[slot>>6] |= 1 << (slot & 63)
	c.execCount++
}

// loadCanExecute implements conservative memory disambiguation: a load may
// execute only when every older store in the store queue has computed its
// address, and any overlapping older store either fully covers the load
// (store-to-load forwarding) or has already left the queue.
func (c *Core) loadCanExecute(u *uop) bool {
	arena := c.pool.arena
	for _, si := range c.sq {
		s := &arena[si]
		if s.seq >= u.seq {
			break
		}
		if !s.issued {
			return false // unknown address: wait
		}
	}
	// All older store addresses known; check overlap.
	if s := c.youngestOverlapping(u); s != nil {
		if covers(s, u) {
			return true // will forward
		}
		return false // partial overlap: wait for the store to commit
	}
	return true
}

func (c *Core) youngestOverlapping(u *uop) *uop {
	var found *uop
	arena := c.pool.arena
	for _, si := range c.sq {
		s := &arena[si]
		if s.seq >= u.seq {
			break
		}
		if overlaps(s, u) {
			found = s
		}
	}
	return found
}

func overlaps(s, l *uop) bool {
	sEnd := s.memAddr + uint64(s.memWidth)
	lEnd := l.memAddr + uint64(l.memWidth)
	return s.memAddr < lEnd && l.memAddr < sEnd
}

func covers(s, l *uop) bool {
	return s.memAddr <= l.memAddr &&
		s.memAddr+uint64(s.memWidth) >= l.memAddr+uint64(l.memWidth)
}

// loadAccess returns (cache latency, forwarded, value) for a load whose
// address is computed. A forwarded load is satisfied from the store queue
// and does not access the cache, matching conventional store-to-load
// forwarding.
func (c *Core) loadAccess(u *uop) (int, bool, uint64) {
	if s := c.youngestOverlapping(u); s != nil && covers(s, u) {
		c.Stats.LoadForwards++
		off := u.memAddr - s.memAddr
		val := s.storeData >> (8 * off)
		if u.memWidth == 1 {
			val &= 0xFF
		}
		return 1, true, val
	}
	var val uint64
	if u.memWidth == 8 {
		val = c.mem.Read64(u.memAddr)
	} else {
		val = uint64(c.mem.Read8(u.memAddr))
	}
	lat := c.Hier.DL1.AccessPC(u.pc, u.memAddr, false)
	return lat, false, val
}

// writeback completes executed micro-ops whose latency has elapsed, wakes
// dependents, and resolves branch mispredictions (oldest first). The
// completion calendar makes this O(completions this cycle): the current
// wheel bucket holds exactly the ops whose doneCycle is now (every entry is
// filed less than a full wheel turn ahead and buckets are drained every
// cycle), plus any ops a flush squashed mid-flight, which are reclaimed
// when their bucket comes due.
func (c *Core) writeback() {
	if c.execCount == 0 {
		return
	}
	b := c.cycle & c.calMask
	n := c.calBuckets[b]
	if n < 0 {
		return
	}
	c.calBuckets[b] = -1
	c.calOcc[b>>6] &^= 1 << (b & 63)
	// wbScratch is preallocated at ROBSize (the calendar never holds more
	// than the in-flight window), so these appends never grow it and the
	// header need not be stored back — no GC write barrier.
	due := c.wbScratch[:0]
	for n >= 0 {
		due = append(due, n)
		n = c.calNext[n]
	}
	// The bucket chain is LIFO over filing order and filing order is close
	// to seq order (issue executes oldest-first), so the chain walk yields a
	// mostly-descending list. Reverse it so the oldest-first insertion sort
	// below sees near-sorted input and runs near-linear instead of quadratic.
	for l, r := 0, len(due)-1; l < r; l, r = l+1, r-1 {
		due[l], due[r] = due[r], due[l]
	}
	arena := c.pool.arena
	// Oldest-first: mispredict resolution order must match the full scan's
	// seq order. The due list is tiny (completions of one cycle).
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && arena[due[j]].seq < arena[due[j-1]].seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, i := range due {
		u := &arena[i]
		c.execCount--
		if u.squashed {
			// Flushed while in flight: the calendar held the last live
			// reference (flushAfter removed it from every other structure).
			c.pool.put(i)
			continue
		}
		if u.hasDest {
			c.physVal[u.pd] = u.result
			c.physReady[u.pd] = true
			if c.waitHead[u.pd] >= 0 {
				c.wakePreg(u.pd)
			}
		}
		u.completed = true
		if u.mispredict {
			c.Stats.BranchMispredicts++
			c.flushAfter(u, u.actualTarget, FlushMispredict)
			// Younger due ops now carry the squashed mark and are reclaimed
			// by the check above as this loop reaches them.
		}
	}
}
