package pipeline

import (
	"errors"
	"fmt"

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
	// instead of re-scanning everything in flight. The wheel is sized at New
	// to exceed the largest latency execute can produce; calOverflow catches
	// anything longer (unreachable with sane configs) with a linear scan.
	// Squashed ops stay filed and are reclaimed when their bucket drains.
	calBuckets  []int32 // per-slot chain head (uref), -1 empty
	calNext     []int32 // parallel to pool.arena: next op in the same bucket
	calMask     uint64
	calOverflow []uref
	execCount   int    // scheduled, not-yet-drained ops (incl. squashed)
	wbScratch   []uref // writeback's per-cycle due list

	// Front end.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool   // fetched a HALT; wait for commit or flush
	fetchBroken     bool   // undecodable bytes (wrong path); wait for flush
	fe              feRing // fused fetch buffer + decode queue

	// Pre-decode cache, indexed by pc-CodeBase: each static instruction is
	// decoded once, when the first superblock covering it is built.
	decoded []predec

	// Superblock engine (see superblock.go): cached decoded straight-line
	// traces replayed by fetch, plus the replay cursor.
	sbIndex  []int32
	sbBlocks []superblock
	sbCur    int32 // block being replayed, -1 when none
	sbCurIdx int32 // next entry within sbCur
	SBStats  SuperblockStats
	// sbEntryPool recycles superblock entry slices across Reset, so a pooled
	// core's rebuilds after reset are allocation-free at steady state.
	sbEntryPool [][]sbEntry
	// sbBuildSeqs stamps each build with the seq it was triggered at, in
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

	lastCommitCycle uint64

	Stats Stats
}

// SuperblockStats counts superblock-engine activity. It lives outside Stats
// so artifact rows never serialize it: it describes how the front end
// worked, not what the machine did.
type SuperblockStats struct {
	Builds  uint64 // superblocks constructed
	Replays uint64 // instructions fetched via cached traces
	// LegacyOps is always 0: every instruction is fetched by replay. It is
	// kept so the benchmark's pipeline.sb_legacy_ops column keeps its schema.
	LegacyOps  uint64
	Invalidate uint64 // cursor drops from redirects into uncached targets
	ReKeys     uint64 // cursor re-keys onto a cached block at the redirect target
	// Wrong-path replay accounting: work the engine performed on paths that
	// a later flush or secure redirect discarded. Replays counts replayed
	// micro-ops squashed in the ROB or dropped from the front-end buffers
	// (every fetch is a replay, so it equals Stats.WrongPathFetches); Builds
	// counts trace builds triggered by such fetches (the cached block
	// survives — static traces are path-independent).
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
	// a load that misses DL1 and L2 and goes to memory, or the slowest ALU op.
	maxLat := cfg.LatAGU + cfg.Caches.DL1.HitLatency + cfg.Caches.L2.HitLatency + cfg.Caches.MemLatency
	for _, l := range []int{cfg.LatBranch, cfg.LatALU, cfg.LatMul, cfg.LatDiv} {
		if l > maxLat {
			maxLat = l
		}
	}
	wheel := 1
	for wheel < maxLat+2 {
		wheel <<= 1
	}
	c.calBuckets = make([]int32, wheel)
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
	defer c.publishSpecCounters()
	for !c.halted {
		if err := c.StepCycle(); err != nil {
			return err
		}
		if c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles {
			return fmt.Errorf("%w (%d)", ErrMaxCycles, c.cfg.MaxCycles)
		}
		if c.cfg.WatchdogCycles > 0 && c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
			return fmt.Errorf("%w at cycle %d (pc=%#x rob=%d)", ErrDeadlock, c.cycle, c.fetchPC, c.robCount)
		}
	}
	return nil
}

// StepCycle advances the machine one clock. Stages run in reverse pipeline
// order so that each consumes state produced in earlier cycles.
func (c *Core) StepCycle() error {
	// Idle fast-forward: when the whole window is empty and the only pending
	// event is the front end waking from an IL1-miss stall, every intervening
	// cycle does exactly one thing — increment FetchStallCycles. Batch those
	// cycles in one step. This is cycle-exact by construction: no queue holds
	// work, rename is neither blocked nor SPM-stalled (so no Drain/SPM stall
	// counters would tick), and fetch cannot run before fetchStallUntil. The
	// jump is clamped so Run's MaxCycles and watchdog checks fire on the same
	// cycle they would have.
	if c.cycle+1 < c.fetchStallUntil &&
		c.robCount == 0 && c.iqCount == 0 && c.execCount == 0 &&
		c.fe.empty() &&
		!c.renameBlocked && c.renameStallUntil <= c.cycle+1 &&
		!c.fetchHalted && !c.fetchBroken && !c.halted {
		target := c.fetchStallUntil - 1 // last idle cycle
		if c.cfg.MaxCycles > 0 && target > c.cfg.MaxCycles {
			target = c.cfg.MaxCycles // Run errors at MaxCycles+1, reached below
		}
		if c.cfg.WatchdogCycles > 0 {
			if wd := c.lastCommitCycle + c.cfg.WatchdogCycles; target > wd {
				target = wd // Run's watchdog trips at wd+1, reached below
			}
		}
		if target > c.cycle {
			skipped := target - c.cycle
			c.cycle = target
			c.Stats.FetchStallCycles += skipped
		}
	}
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

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnvMix folds v into the FNV-1a digest h, least-significant byte first.
// Fully unrolled: this runs once per committed op plus once per committed
// memory access, and the byte loop was a measurable slice of retire.
func fnvMix(h, v uint64) uint64 {
	h = (h ^ (v & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 8) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 16) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 24) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 32) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 40) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 48) & 0xFF)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}
