package mem

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// SPM models the SeMPE Scratchpad Memory that holds ArchRS register
// snapshots. Per the paper (Table II): 216 KiB capacity, up to 30 snapshot
// slots (one per nested sJMP), and a 64 byte/cycle read/write port. The SPM
// is not part of the cache hierarchy and is invisible to the attacker.
//
// Each slot holds two architectural register states (one captured before the
// SecBlock, one after the NT path) and two modified-register bit-vectors.
type SPM struct {
	slots        []spmSlot
	depth        int // current nesting depth (number of live slots)
	bandwidth    int // bytes per cycle
	snapshotSize int // bytes charged per full register-state save

	// Stats.
	BytesSaved    uint64
	BytesRestored uint64
	StallCycles   uint64
	MaxDepth      int
}

type spmSlot struct {
	initial [isa.NumArchRegs]uint64 // state before entering the SecBlock
	ntState [isa.NumArchRegs]uint64 // state after the NT path
	ntMod   uint64                  // bit-vector: regs modified in NT path
	tMod    uint64                  // bit-vector: regs modified in T path
}

// ErrSPMOverflow is returned when secure-branch nesting exceeds the number of
// snapshot slots. The paper suggests rejecting such programs at compile time
// or raising a runtime exception; the simulator surfaces it as an error.
var ErrSPMOverflow = errors.New("mem: SPM snapshot slots exhausted (secure nesting too deep)")

// SPMConfig configures the scratchpad.
type SPMConfig struct {
	Slots     int // snapshot slots (nested sJMP depth supported)
	Bandwidth int // bytes per cycle for save/restore traffic
	// SnapshotBytes is the size of one full register-state save. The
	// default (0) charges the ArchRS cost: 48 architectural registers. The
	// PhyRS ablation (paper §IV-F, the design the authors rejected) charges
	// the full physical register file plus the RAT instead.
	SnapshotBytes int
}

// DefaultSPMConfig mirrors Table II: 30 slots, 64 B/cycle, ArchRS snapshots.
func DefaultSPMConfig() SPMConfig { return SPMConfig{Slots: 30, Bandwidth: 64} }

// PhyRSSnapshotBytes is the snapshot footprint of the rejected Physical
// Register Snapshot design: 256 physical registers of 8 bytes plus a
// 48-entry register alias table of one byte per entry.
const PhyRSSnapshotBytes = 256*8 + isa.NumArchRegs

// NewSPM builds a scratchpad with the given geometry.
func NewSPM(cfg SPMConfig) *SPM {
	if cfg.Slots <= 0 || cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("mem: bad SPM config %+v", cfg))
	}
	if cfg.SnapshotBytes == 0 {
		cfg.SnapshotBytes = SnapshotBytes
	}
	return &SPM{
		slots:        make([]spmSlot, cfg.Slots),
		bandwidth:    cfg.Bandwidth,
		snapshotSize: cfg.SnapshotBytes,
	}
}

// Depth returns the current snapshot nesting depth.
func (s *SPM) Depth() int { return s.depth }

// Slots returns the total number of snapshot slots.
func (s *SPM) Slots() int { return len(s.slots) }

// SnapshotBytes is the SPM footprint of one full architectural register
// state: 48 registers of 8 bytes.
const SnapshotBytes = isa.NumArchRegs * 8

// PushInitial captures the pre-SecBlock register state into a new slot,
// returning the stall cycles charged for the save traffic (full snapshot:
// the paper drains the pipeline and saves all architectural registers when
// the sJMP commits).
func (s *SPM) PushInitial(regs *[isa.NumArchRegs]uint64) (stall int, err error) {
	if s.depth >= len(s.slots) {
		return 0, ErrSPMOverflow
	}
	slot := &s.slots[s.depth]
	slot.initial = *regs
	slot.ntMod = 0
	slot.tMod = 0
	s.depth++
	if s.depth > s.MaxDepth {
		s.MaxDepth = s.depth
	}
	return s.charge(s.snapshotSize, true), nil
}

// MarkModified records that architectural register r was written while the
// SecBlock at nesting level (depth-1) was executing its current path.
// Writes propagate to every live nesting level, because an inner SecBlock's
// net register updates are also modifications of every enclosing path.
func (s *SPM) MarkModified(r isa.Reg, inTPath []bool) {
	for lvl := 0; lvl < s.depth; lvl++ {
		if inTPath[lvl] {
			s.slots[lvl].tMod |= 1 << uint(r)
		} else {
			s.slots[lvl].ntMod |= 1 << uint(r)
		}
	}
}

// EndNTPath is invoked when the first eosJMP of the innermost SecBlock
// commits: it saves the registers modified during the NT path and restores
// the initial state so the T path starts from the same architectural state.
// It returns the register values to restore and the stall cycles for the
// SPM traffic (save modified + restore modified).
func (s *SPM) EndNTPath(regs *[isa.NumArchRegs]uint64) (restore [isa.NumArchRegs]uint64, mask uint64, stall int) {
	slot := &s.slots[s.depth-1]
	slot.ntState = *regs
	mask = slot.ntMod
	n := popcount(mask)
	// Save the NT-modified registers plus the bit-vector, then read back the
	// initial values of those same registers.
	stall = s.charge(n*8+8, true) + s.charge(n*8, false)
	restore = slot.initial
	return restore, mask, stall
}

// EndTPath is invoked when the second eosJMP commits. taken reports the real
// branch outcome. It returns the final register values for every register
// modified in either path and the stall cycles. Crucially, the SPM traffic
// depends only on the union of the modified sets — never on the outcome —
// so restore timing cannot leak the secret: when the T path is the true
// path, the same words are read from the SPM and the current value is
// overwritten with itself.
func (s *SPM) EndTPath(taken bool, regs *[isa.NumArchRegs]uint64) (final [isa.NumArchRegs]uint64, mask uint64, stall int) {
	s.depth--
	slot := &s.slots[s.depth]
	mask = slot.ntMod | slot.tMod
	n := popcount(mask)
	stall = s.charge(n*8+8, false)
	if taken {
		// T path is the true path: the current register file already holds
		// (initial state + T-path writes); every restore is a self-overwrite.
		final = *regs
		return final, mask, stall
	}
	// NT path is the true path: registers modified in the NT path take their
	// NT-state values; registers modified only in the T path roll back to the
	// initial state.
	final = *regs
	for r := 0; r < isa.NumArchRegs; r++ {
		bit := uint64(1) << uint(r)
		if mask&bit == 0 {
			continue
		}
		if slot.ntMod&bit != 0 {
			final[r] = slot.ntState[r]
		} else {
			final[r] = slot.initial[r]
		}
	}
	return final, mask, stall
}

// CopyFrom makes the live snapshot slots and statistics equal to src's.
// Slots above the nesting depth are rewritten before they are read (a push
// captures its initial state and clears both bit-vectors), so only the live
// ones are copied. Both scratchpads must have the same geometry.
func (s *SPM) CopyFrom(src *SPM) {
	copy(s.slots, src.slots[:src.depth])
	s.depth = src.depth
	s.BytesSaved, s.BytesRestored, s.StallCycles = src.BytesSaved, src.BytesRestored, src.StallCycles
	s.MaxDepth = src.MaxDepth
}

// Reset clears all snapshot state and statistics.
func (s *SPM) Reset() {
	s.depth = 0
	s.BytesSaved, s.BytesRestored, s.StallCycles = 0, 0, 0
	s.MaxDepth = 0
}

// charge accounts bytes of SPM traffic and returns the pipeline stall cycles
// implied by the port bandwidth.
func (s *SPM) charge(bytes int, save bool) int {
	if save {
		s.BytesSaved += uint64(bytes)
	} else {
		s.BytesRestored += uint64(bytes)
	}
	cycles := (bytes + s.bandwidth - 1) / s.bandwidth
	s.StallCycles += uint64(cycles)
	return cycles
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
