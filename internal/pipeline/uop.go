package pipeline

import "repro/internal/isa"

// uop is one in-flight micro-operation. The simulated ISA maps 1:1 from
// instructions to micro-ops. Micro-ops live in a flat per-core arena and are
// referenced everywhere by index (uref), never by pointer: the ROB, issue
// queue, memory queues, and front-end rings are all []uref, which keeps the
// whole in-flight window invisible to the garbage collector — no pointer
// slots to scan and no write barriers on the per-cycle queue traffic, which
// profiles showed costing ~15% of simulation time.
// Field order groups same-width fields so the struct packs without padding
// holes (128 bytes instead of 152 declaration-ordered): fetch copies a whole
// prototype uop per fetched instruction, so struct size is copy cost.
type uop struct {
	// 8-byte fields.
	seq          uint64 // global program-order sequence number
	pc           uint64 // address of the first byte (including SecPrefix)
	npc          uint64 // next sequential pc
	predTarget   uint64 // front-end predicted target
	doneCycle    uint64 // execution completes at this cycle
	result       uint64
	memAddr      uint64
	storeData    uint64
	actualTarget uint64 // resolved control-flow target

	inst isa.Inst

	// Rename state (2-byte). Unused sources rename to the psNone sentinel
	// (always ready, value 0); pd/oldPd use -1 for "none" (guarded by
	// hasDest). int16 holds any PhysRegs size in use.
	ps1, ps2, ps3 int16 // sources: Ra, Rb, old-Rd (ST data / CMOV old value)
	pd            int16 // destination physical register
	oldPd         int16 // previous mapping of Rd, freed at commit

	// Static per-instruction metadata (1-byte), resolved once per static
	// instruction by the decode cache (fetch copies it with the prototype):
	// functional-unit class, the architectural source registers rename must
	// map into ps1..ps3 (-1 = unused), the destination-write flag, and the
	// memory-op shape.
	cl               isa.Class
	sra1, sra2, sra3 int8
	writesRd         bool
	isLoad           bool
	isStore          bool
	memWidth         uint8

	// Dynamic flags (1-byte).
	predTaken   bool
	notReady    int8 // pending source-operand count (issue wakeup)
	hasDest     bool
	issued      bool
	completed   bool
	actualTaken bool
	mispredict  bool
	isSJmp      bool // SeMPE roles, set only when the core runs with SeMPE
	isEOSJmp    bool
	squashed    bool
}

// uref is an index into the core's uop arena.
type uref = int32

// uopChunk is how many micro-ops the arena grows by at a time. One chunk
// covers a full 192-entry ROB plus front-end buffers, so steady state runs
// allocation-free after the second chunk.
const uopChunk = 256

// uopPool recycles micro-ops so the pipeline loop performs no per-uop heap
// allocation in steady state. Ops live in a single growable arena; indices
// stay valid across growth (unlike pointers), so every pipeline structure
// stores uref indices. get returns a fully zeroed uop, so no operand, flag,
// or squash state can leak from a previous (possibly flushed) use; getRaw
// skips the zeroing for callers that overwrite the whole struct (fetch copies
// a complete prototype over the slot).
//
// Invariant: no *uop obtained from the arena may be held across a get/getRaw
// call — growth can move the backing array.
type uopPool struct {
	arena []uop
	free  []uref
}

func (p *uopPool) grow() {
	if cap(p.free) < uopChunk {
		p.free = make([]uref, 0, 2*uopChunk)
	}
	base := len(p.arena)
	var zero [uopChunk]uop
	p.arena = append(p.arena, zero[:]...)
	for i := uopChunk - 1; i >= 0; i-- {
		p.free = append(p.free, uref(base+i))
	}
}

// reserve guarantees the next n get/getRaw calls will not grow (and so not
// move) the arena, letting hot loops hoist the arena pointer across them.
func (p *uopPool) reserve(n int) {
	if len(p.free) < n {
		p.grow()
	}
}

func (p *uopPool) getRaw() uref {
	if len(p.free) == 0 {
		p.grow()
	}
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return i
}

func (p *uopPool) get() uref {
	i := p.getRaw()
	p.arena[i] = uop{}
	return i
}

func (p *uopPool) put(i uref) {
	p.free = append(p.free, i)
}

// reset returns every arena slot to the free list, highest index first, so
// the next get sequence hands out ascending indices — the same order a
// fresh pool's lazy growth produces. Slot contents are not zeroed here:
// get zeroes on acquisition and getRaw callers overwrite the whole struct.
func (p *uopPool) reset() {
	if cap(p.free) < len(p.arena) {
		p.free = make([]uref, 0, len(p.arena)+uopChunk)
	}
	p.free = p.free[:0]
	for i := len(p.arena) - 1; i >= 0; i-- {
		p.free = append(p.free, uref(i))
	}
}

// feRing fuses the fetch buffer and the decode queue into one ring buffer.
// Micro-ops flow fetch → decode → rename strictly FIFO through both stages,
// so the decode stage does not need to move elements between two rings: the
// ring holds [head, head+nDec) as the decode queue (rename pops the head)
// followed by nFetch fetched-but-undecoded entries, and decode just moves
// the boundary. Capacity limits of both logical buffers are enforced
// separately, so flow control (fetch stalling on a full fetch buffer, decode
// stalling on a full decode queue) is cycle-identical to the two-ring form.
// The backing store is rounded up to a power of two so head arithmetic is a
// mask instead of an integer division.
type feRing struct {
	buf      []uref
	mask     int
	head     int
	nDec     int // decoded entries, available to rename
	nFetch   int // fetched entries, not yet past the decode boundary
	decCap   int
	fetchCap int
}

func newFERing(decCap, fetchCap int) feRing {
	sz := 1
	for sz < decCap+fetchCap {
		sz <<= 1
	}
	return feRing{buf: make([]uref, sz), mask: sz - 1, decCap: decCap, fetchCap: fetchCap}
}

func (r *feRing) fetchFull() bool { return r.nFetch == r.fetchCap }
func (r *feRing) empty() bool     { return r.nDec == 0 && r.nFetch == 0 }
func (r *feRing) decLen() int     { return r.nDec }
func (r *feRing) frontDec() uref  { return r.buf[r.head] }

func (r *feRing) pushFetched(i uref) {
	r.buf[(r.head+r.nDec+r.nFetch)&r.mask] = i
	r.nFetch++
}

// decodeAdvance moves up to max fetched entries across the decode boundary,
// bounded by the decode queue's free space — the whole decode stage in O(1).
func (r *feRing) decodeAdvance(max int) {
	k := r.decCap - r.nDec
	if k > r.nFetch {
		k = r.nFetch
	}
	if k > max {
		k = max
	}
	r.nDec += k
	r.nFetch -= k
}

func (r *feRing) popDec() uref {
	i := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	r.nDec--
	return i
}

// popAny removes the oldest entry regardless of stage (front-end flush).
func (r *feRing) popAny() uref {
	i := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	if r.nDec > 0 {
		r.nDec--
	} else {
		r.nFetch--
	}
	return i
}
