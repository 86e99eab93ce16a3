package pipeline

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/sempe"
)

// Core is one simulated processor instance. A Core runs one program to
// completion; Reset readies it for the next run without reallocating.
type Core struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory

	Hier *cache.Hierarchy
	BP   *bpred.Unit
	JB   *sempe.JBTable
	SPM  *mem.SPM

	stridePF *prefetch.Stride
	streamPF *prefetch.Stream

	cycle uint64
	seq   uint64

	// Committed architectural state.
	archRegs [isa.NumArchRegs]uint64
	halted   bool

	// Rename structures. rat, physVal, and physReady each carry one sentinel
	// slot past their architectural/physical size: rat[sraNone] is pinned to
	// psNone, physVal[psNone] to 0, and physReady[psNone] to true, so rename
	// and execute index them unconditionally for unused source operands
	// instead of branching on a -1 marker per operand.
	rat       [isa.NumArchRegs + 1]int16
	physVal   []uint64
	physReady []bool
	freeList  []int16

	// Reorder buffer: a ring of in-flight micro-op references.
	rob      []uref
	robHead  int
	robCount int

	// Scheduler. The issue queue is event-driven rather than scanned: a
	// dispatched micro-op counts its not-yet-ready sources (notReady) and
	// registers itself on the waiter list of each pending physical register;
	// when a register is written (writeback or an ArchRS restore) its waiters
	// are woken, and ops whose count hits zero are inserted seq-ordered into
	// readyList. issue therefore touches only ready work — selection order
	// and outcome are identical to an oldest-first full scan, at O(ready)
	// instead of O(IQSize) per cycle. iqCount tracks occupancy for the
	// dispatch structural check (the queue itself has no other use).
	// readyList is a fixed-capacity buffer (IQSize) with an explicit count:
	// insertions and compaction never store a slice header back into the
	// Core, so the per-wakeup traffic incurs no GC write barriers.
	iqCount      int
	readyList    []uref
	readyCount   int
	waitHead     []int32 // per-physreg chain head into waitNodes, -1 empty
	waitNodes    []waitNode
	waitFreeHead int32 // free-node chain through waitNode.next, -1 empty

	// Memory queues (kept in program order).
	lq []uref
	sq []uref

	// Completion calendar: executed micro-ops are filed into a time-wheel
	// bucket keyed by doneCycle, chained through calNext (parallel to the
	// uop arena), so writeback touches exactly the ops completing this cycle
	// instead of re-scanning everything in flight. New sizes the wheel past
	// the largest latency execute can charge, so every op is filed less than
	// one wheel turn ahead. A flush cancels squashed ops out of their
	// buckets; one already drained into writeback's due list is reclaimed
	// there.
	calBuckets []int32  // per-slot chain head (uref), -1 empty
	calOcc     []uint64 // bit b set when bucket b is non-empty (skipIdle's search)
	calNext    []int32  // parallel to pool.arena: next op in the same bucket
	calMask    uint64
	execCount  int    // scheduled, not-yet-drained ops (incl. squashed)
	wbScratch  []uref // writeback's per-cycle due list

	// Front end.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool   // fetched a HALT; wait for commit or flush
	fetchBroken     bool   // undecodable bytes (wrong path); wait for flush
	fe              feRing // fused fetch buffer + decode queue

	// Decode cache (superblock.go): each static instruction decoded once
	// into a prototype micro-op that fetch copies. sbIndex maps a code
	// offset to its entry in sbEntries, or holds sbUndecoded/sbUndecodable.
	sbIndex   []int32
	sbEntries []sbEntry
	SBStats   SuperblockStats
	// sbBuildSeqs stamps each decode with the seq it was triggered at, in
	// ascending order; flushes truncate the wrong-path tail into
	// SBStats.WrongPathBuilds (sbCountWrongPathBuilds).
	sbBuildSeqs []uint64

	// Micro-op recycling (zero-alloc steady state).
	pool      uopPool
	squashTmp []uref // scratch for flushAfter's deferred frees

	// SeMPE sequencing. renameBlocked holds rename while an eosJMP is in
	// flight (pipeline drain 2/3 of the paper's Fig. 6); renameStallUntil
	// serializes the ArchRS save/restore SPM traffic after drains; ovfDepth
	// counts live secure regions downgraded to non-secure by the overflow
	// policy.
	renameBlocked    bool
	renameStallUntil uint64
	ovfDepth         int
	inTScratch       []bool

	// Observable digests for the leak checker.
	commitDigest uint64
	memDigest    uint64

	// The core has two observer hooks: MemWatch for committed loads and
	// stores, and the spec watch below for everything in flight.
	// MemWatch, when non-nil, is invoked for every committed load and store
	// with the access address, kind, and commit cycle — the attack lab
	// (internal/attack) installs it to timestamp marker stores, turning the
	// committed-access stream into per-segment timings an attacker program
	// "measures". It is nil in normal runs and costs one nil check per
	// committed op. DESIGN.md gives the measured reason the markers are
	// not a filter over the spec stream instead.
	MemWatch func(addr uint64, write bool, cycle uint64)

	// Speculative-window observability (spec.go). specWatch, when armed,
	// receives SpecEvents for all in-flight work — wrong-path included —
	// from fetch, execute and retire; arming it never changes which fetch
	// path runs. specFromDefault records that the hook came from the
	// process default so Reset can re-read it; an explicitly armed hook is
	// caller-owned and preserved like MemWatch. specPC/specSeq stamp the
	// access context cache-fill events are attributed to; specEmitted and
	// specPub feed the process-wide counters (publishSpecCounters).
	specWatch       func(SpecEvent)
	specFromDefault bool
	specPC, specSeq uint64
	specEmitted     uint64
	specPub         SpecCounters

	// skipped counts the clocks skipIdle jumped over (published as
	// SpecCounters.SkippedCycles).
	skipped uint64

	lastCommitCycle uint64

	Stats Stats
}

// SuperblockStats counts decode-cache activity (superblock.go). It lives
// outside Stats so artifact rows never serialize it: it describes how the
// front end worked, not what the machine did.
type SuperblockStats struct {
	Builds  uint64 // static instructions decoded, each at most once per run
	Replays uint64 // instructions fetched from their cached decode (every fetch)
	// LegacyOps is always 0: every instruction is fetched by replay. It is
	// kept so the benchmark's pipeline.sb_legacy_ops column keeps its schema.
	LegacyOps uint64
	// Wrong-path accounting: work the front end performed on paths that a
	// later flush or secure redirect discarded. Replays counts fetched
	// micro-ops squashed in the ROB or dropped from the front-end buffers (it
	// equals Stats.WrongPathFetches); Builds counts instructions first
	// decoded by such fetches (the entry survives — a static decode is
	// path-independent).
	WrongPathBuilds  uint64
	WrongPathReplays uint64
}

// u resolves a micro-op reference. The returned pointer must not be held
// across a pool get/getRaw call (arena growth moves the backing array).
func (c *Core) u(i uref) *uop { return &c.pool.arena[i] }

// sraNone is the architectural-source sentinel: rat[sraNone] is pinned to
// psNone, so an unused source renames to the always-ready, always-zero
// sentinel physical register without a branch.
const sraNone = int8(isa.NumArchRegs)

// psNone is the sentinel physical register index (one past the configured
// register file).
func (c *Core) psNone() int16 { return int16(c.cfg.PhysRegs) }

// Errors returned by Run.
var (
	ErrMaxCycles = errors.New("pipeline: cycle budget exhausted")
	ErrDeadlock  = errors.New("pipeline: watchdog expired (no commits)")
)

// New builds a core for prog: it sizes every structure for cfg and then
// calls Reset, so a new core and a reset one start from the same state by
// construction.
func New(cfg Config, prog *isa.Program) *Core {
	c := &Core{
		cfg:       cfg,
		mem:       mem.NewMemory(),
		Hier:      cache.NewHierarchy(cfg.Caches),
		BP:        bpred.NewUnit(),
		JB:        sempe.NewJBTable(cfg.SPM.Slots),
		SPM:       mem.NewSPM(cfg.SPM),
		physVal:   make([]uint64, cfg.PhysRegs+1),
		physReady: make([]bool, cfg.PhysRegs+1),
		rob:       make([]uref, cfg.ROBSize),
		readyList: make([]uref, cfg.IQSize),
		waitHead:  make([]int32, cfg.PhysRegs+1),
		waitNodes: make([]waitNode, 0, 4*cfg.IQSize),
		lq:        make([]uref, 0, cfg.LQSize),
		sq:        make([]uref, 0, cfg.SQSize),
		wbScratch: make([]uref, 0, cfg.ROBSize+8),
		freeList:  make([]int16, 0, cfg.PhysRegs),
		fe:        newFERing(cfg.DecodeQSize, cfg.FetchBufSize),
	}
	if cfg.StridePrefetchTable > 0 {
		c.stridePF = prefetch.NewStride(c.Hier.DL1, cfg.StridePrefetchTable, cfg.StridePrefetchDegree)
		c.Hier.DL1.SetObserver(c.stridePF)
	}
	if cfg.StreamWindow > 0 {
		c.streamPF = prefetch.NewStream(c.Hier.L2, cfg.StreamWindow, cfg.StreamDepth)
		c.Hier.L2.SetObserver(c.streamPF)
	}
	// Size the completion wheel past the longest latency execute can charge:
	// a load that misses DL1 and L2 and goes to memory (DL1.AccessPC charges
	// at most that sum; a forwarded load charges 1), or the slowest
	// functional unit.
	maxLat := cfg.LatAGU + cfg.Caches.DL1.HitLatency + cfg.Caches.L2.HitLatency + cfg.Caches.MemLatency
	for _, l := range []int{cfg.LatBranch, cfg.LatALU, cfg.LatMul, cfg.LatDiv} {
		if l > maxLat {
			maxLat = l
		}
	}
	wheel := 64 // at least one calOcc word
	for wheel < maxLat+2 {
		wheel <<= 1
	}
	c.calBuckets = make([]int32, wheel)
	c.calOcc = make([]uint64, wheel/64)
	c.calMask = uint64(wheel - 1)
	c.Reset(prog)
	return c
}

// Mem exposes the memory image (for result checking after a run).
func (c *Core) Mem() *mem.Memory { return c.mem }

// ArchRegs returns the committed architectural register file.
func (c *Core) ArchRegs() [isa.NumArchRegs]uint64 { return c.archRegs }

// Halted reports whether HALT has committed.
func (c *Core) Halted() bool { return c.halted }

// FetchPC returns the address fetch reads next. At a drained cycle it is the
// next instruction to commit.
func (c *Core) FetchPC() uint64 { return c.fetchPC }

// Cycles returns the current cycle count.
func (c *Core) Cycles() uint64 { return c.cycle }

// CommitDigest returns a fingerprint of the committed-PC stream, one of the
// attacker-observable traces the leak checker compares.
func (c *Core) CommitDigest() uint64 { return c.commitDigest }

// MemDigest returns a fingerprint of the committed memory-access address
// stream (addresses and read/write kinds, in commit order).
func (c *Core) MemDigest() uint64 { return c.memDigest }

// Run simulates until HALT commits. It returns an error on cycle-budget
// exhaustion, deadlock, or a SeMPE protocol violation (e.g. jbTable
// overflow).
func (c *Core) Run() error {
	_, err := c.run(1, 0)
	return err
}

// run is the loop behind Run and RunToFork; an empty window (lo > hi)
// never stops it.
func (c *Core) run(lo, hi uint64) (stopped bool, err error) {
	defer func() { c.publishSpecCounters(!stopped) }()
	for !c.halted {
		if err := c.StepCycle(); err != nil {
			return false, err
		}
		if c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles {
			return false, fmt.Errorf("%w (%d)", ErrMaxCycles, c.cfg.MaxCycles)
		}
		if c.cfg.WatchdogCycles > 0 && c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
			return false, fmt.Errorf("%w at cycle %d (pc=%#x rob=%d)", ErrDeadlock, c.cycle, c.fetchPC, c.robCount)
		}
		if c.robCount == 0 && c.fetchPC >= lo && c.fetchPC <= hi && c.drained() {
			return true, nil
		}
	}
	return false, nil
}

// StepCycle advances the machine one clock. Stages run in reverse pipeline
// order so that each consumes state produced in earlier cycles. When no
// stage can act in the coming clock, it first skips to the last clock
// before the next event (skipIdle); the early-out keeps busy cycles at one
// compare.
func (c *Core) StepCycle() error {
	if c.readyCount == 0 {
		c.skipIdle()
	}
	return c.step()
}

// step runs every stage for one clock.
func (c *Core) step() error {
	c.cycle++
	c.Stats.Cycles = c.cycle
	if err := c.retire(); err != nil {
		return err
	}
	if c.halted {
		return nil
	}
	c.writeback()
	c.issue()
	c.rename()
	c.decode()
	c.fetch()
	return nil
}

// skipIdle fast-forwards over clocks in which no stage can change state.
// That holds for the coming clock n when the ROB head has not completed
// (retire waits), nothing is ready (issue idles), no completion is due
// (writeback idles), decode and rename cannot move, and fetch is halted,
// broken, stalled or full. Nothing but the cycle count and the stall
// counters then changes until the next of three events: the next non-empty
// completion-calendar bucket, fetchStallUntil, or renameStallUntil. The
// skipped clocks are credited exactly as stepping them would have
// (FetchStallCycles, DrainStallCycles, SPMStallCycles), and the jump is
// clamped so Run's MaxCycles and watchdog checks fire on the same cycle
// they would have.
func (c *Core) skipIdle() {
	n := c.cycle + 1
	fetchStalled := !c.fetchHalted && !c.fetchBroken && n < c.fetchStallUntil
	if c.halted || !c.fetchHalted && !c.fetchBroken && !fetchStalled && !c.fe.fetchFull() {
		return // fetch can act
	}
	if c.execCount > 0 && c.calBuckets[n&c.calMask] >= 0 {
		return // a completion is due
	}
	arena := c.pool.arena
	if c.robCount > 0 && arena[c.rob[c.robHead]].completed {
		return // retire can act
	}
	if c.fe.nFetch > 0 && c.fe.nDec < c.fe.decCap && c.cfg.DecodeWidth > 0 {
		return // decode can move
	}
	// Rename: which stall counter each skipped clock credits, if any.
	drainStall, spmStall := false, false
	switch {
	case c.renameBlocked:
		drainStall = true
	case n < c.renameStallUntil:
		spmStall = true
	case c.fe.nDec > 0 && c.cfg.RenameWidth > 0:
		u := &arena[c.fe.frontDec()]
		if c.cfg.SeMPE && (u.isSJmp || u.isEOSJmp) && c.robCount > 0 {
			drainStall = true
		} else if c.renameFits(u) {
			return // rename can move
		}
	}

	// The next event: the clock at which some stage may act again.
	next := ^uint64(0)
	if fetchStalled {
		next = c.fetchStallUntil
	}
	if spmStall && c.renameStallUntil < next {
		next = c.renameStallUntil
	}
	if c.execCount > 0 {
		if due := c.cycle + c.calDueIn(); due < next {
			next = due
		}
	}
	if next == ^uint64(0) && c.cfg.MaxCycles == 0 && c.cfg.WatchdogCycles == 0 {
		return // frozen for good and no budget ends it: step as before
	}
	target := next - 1 // last idle clock
	if c.cfg.MaxCycles > 0 && target > c.cfg.MaxCycles {
		target = c.cfg.MaxCycles // Run errors at MaxCycles+1, reached by step
	}
	if c.cfg.WatchdogCycles > 0 {
		if wd := c.lastCommitCycle + c.cfg.WatchdogCycles; target > wd {
			target = wd // Run's watchdog trips at wd+1, reached by step
		}
	}
	if target <= c.cycle {
		return
	}
	skipped := target - c.cycle
	c.cycle = target
	c.skipped += skipped
	if fetchStalled {
		c.Stats.FetchStallCycles += skipped
	}
	if drainStall {
		c.Stats.DrainStallCycles += skipped
	}
	if spmStall {
		c.Stats.SPMStallCycles += skipped
	}
}

// calDueIn returns how many clocks after the current one the next non-empty
// completion-calendar bucket comes due, from two clocks on (skipIdle has
// checked the next one) up to one wheel turn, or 0 when no bucket is
// occupied. It reads calOcc a word at a time; the wheel is a multiple of 64
// buckets, so a word never wraps.
func (c *Core) calDueIn() uint64 {
	wheel := c.calMask + 1
	for d := uint64(2); d <= wheel; {
		pos := (c.cycle + d) & c.calMask
		if w := c.calOcc[pos>>6] >> (pos & 63); w != 0 {
			if d += uint64(bits.TrailingZeros64(w)); d <= wheel {
				return d
			}
			return 0
		}
		d += 64 - pos&63
	}
	return 0
}
