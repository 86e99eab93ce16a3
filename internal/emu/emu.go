// Package emu implements an architectural (functional, 1-instruction-per-step)
// reference interpreter for the simulated ISA. It serves as the golden model
// for the cycle-level out-of-order core: on any program both machines must
// produce identical final registers and memory.
//
// The emulator supports two modes:
//
//   - Legacy: SecPrefix bytes are ignored, so sJMP is an ordinary branch and
//     eosJMP is a NOP. This is how a SeMPE binary behaves on a non-SeMPE core
//     (backward compatibility, paper §IV-C).
//   - SeMPE: sJMP executes both paths sequentially (not-taken first), eosJMP
//     jumps back, and the ArchRS mechanism snapshots and restores
//     architectural registers around the two paths (paper §IV-E/F).
package emu

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sempe"
)

// Mode selects how secure instructions are interpreted.
type Mode int

// Execution modes.
const (
	Legacy Mode = iota // ignore SecPrefix (baseline architecture)
	SeMPE              // dual-path secure execution
)

func (m Mode) String() string {
	if m == SeMPE {
		return "sempe"
	}
	return "legacy"
}

// Machine is a functional processor instance. A machine is reusable:
// Reset readies it for another program without reallocating its memory
// image, scratchpad or decode cache.
type Machine struct {
	Mode Mode
	Mem  *mem.Memory
	Regs [isa.NumArchRegs]uint64
	PC   uint64

	// OverflowNonSecure selects the paper's permissive overflow policy
	// (§IV-E): when secure nesting exceeds the SPM snapshot slots, the
	// exception handler continues executing the branch as non-secure
	// (single path, no protection) instead of terminating. Downgraded
	// regions are counted in NestOverflows.
	OverflowNonSecure bool
	NestOverflows     uint64
	ovfDepth          int // live downgraded regions (LIFO inside the secure nest)

	// Secure-execution state (SeMPE mode): the core's jbTable, with one
	// entry per SPM snapshot slot.
	jb      *sempe.JBTable
	spm     *mem.SPM
	inTPath []bool // scratch for SPM.MarkModified, indexed by nesting level

	// Instruction budget guard against runaway programs.
	MaxInsts uint64

	// Statistics.
	Insts    uint64 // committed instructions
	SJmps    uint64 // sJMP instructions executed
	EOSJmps  uint64 // eosJMP instructions executed
	Branches uint64

	// CommitDigest and MemDigest fingerprint the committed-PC stream and the
	// committed memory-access stream exactly as the pipeline core does
	// (isa.DigestMix; an access mixes address<<1, plus 1 for a store), so a
	// prefix of a core's run can be checked against the emulator's.
	CommitDigest uint64
	MemDigest    uint64

	// Decode cache: dec[off] holds the decode of the instruction at code
	// offset off when its gen equals decGen. Instructions are decoded from
	// the program image (code), as the core decodes them, so a store into
	// the code range changes data memory only and no entry goes stale
	// within a run; Reset drops all of them by advancing decGen.
	code     []byte
	codeBase uint64
	dec      []decoded
	decGen   uint32

	halted bool
}

// decoded is one decode-cache entry.
type decoded struct {
	in   isa.Inst
	size uint8
	gen  uint32
}

// Errors reported by Run. A secure-nesting fault wraps sempe.ErrOverflow or
// sempe.ErrUnderflow, as on the core.
var (
	ErrBudget = errors.New("emu: instruction budget exhausted")
	// ErrFetch reports a PC at which the program image holds no instruction:
	// outside the image, or at bytes that do not decode. The core's fetch
	// stalls there until its watchdog trips.
	ErrFetch = errors.New("emu: no instruction at pc")
)

// New creates a machine executing prog in the given mode on a fresh memory,
// with a jbTable and SPM of slots entries: the secure nesting depth of the
// core it stands for (pipeline.Config.SPM.Slots), past which an sJMP
// overflows.
func New(mode Mode, prog *isa.Program, slots int) *Machine {
	spm := mem.DefaultSPMConfig()
	spm.Slots = slots
	m := &Machine{
		Mem: mem.NewMemory(),
		jb:  sempe.NewJBTable(slots),
		spm: mem.NewSPM(spm),
	}
	m.Reset(mode, prog)
	return m
}

// Reset readies the machine to execute prog in the given mode from its
// entry point, exactly as New would, but reuses the memory image (zeroed in
// place and reloaded), the scratchpad and the decode cache. The overflow
// policy is the caller's and stays as set.
func (m *Machine) Reset(mode Mode, prog *isa.Program) {
	m.Mode = mode
	m.Mem.Reset()
	m.Mem.Load(prog)
	m.Regs = [isa.NumArchRegs]uint64{}
	m.Regs[isa.SP] = isa.DefaultStackTop
	m.PC = prog.Entry
	m.NestOverflows, m.ovfDepth = 0, 0
	m.jb.Reset()
	m.spm.Reset()
	m.MaxInsts = 1 << 32
	m.Insts, m.SJmps, m.EOSJmps, m.Branches = 0, 0, 0, 0
	m.CommitDigest, m.MemDigest = isa.DigestSeed, isa.DigestSeed
	m.code, m.codeBase = prog.Code, prog.CodeBase
	if cap(m.dec) < len(prog.Code) {
		m.dec = make([]decoded, len(prog.Code))
		m.decGen = 0
	}
	m.dec = m.dec[:len(prog.Code)]
	m.decGen++
	if m.decGen == 0 { // wrapped: stale stamps could match again
		clear(m.dec)
		m.decGen = 1
	}
	m.halted = false
}

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Run executes until HALT or error.
func (m *Machine) Run() error {
	return m.RunTo(^uint64(0))
}

// RunTo executes until n instructions have committed, HALT, or an error.
func (m *Machine) RunTo(n uint64) error {
	for !m.halted && m.Insts < n {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.Insts >= m.MaxInsts {
		return fmt.Errorf("%w (%d)", ErrBudget, m.MaxInsts)
	}
	in, size, err := m.fetch()
	if err != nil {
		return err
	}
	m.Insts++
	m.CommitDigest = isa.DigestMix(m.CommitDigest, m.PC)
	next := m.PC + uint64(size)

	secure := m.Mode == SeMPE
	switch {
	case in.Op == isa.OpHalt:
		m.halted = true
		m.PC = next
		return nil
	case in.IsEOSJmp() && secure:
		return m.stepEOSJmp(next)
	case in.IsSJmp() && secure:
		return m.stepSJmp(in, next)
	case in.Op == isa.OpNop:
		m.PC = next
		return nil
	case in.Op.IsBranch():
		m.Branches++
		if isa.BranchTaken(in.Op, m.Regs[in.Ra], m.Regs[in.Rb]) {
			m.PC += uint64(in.Imm)
		} else {
			m.PC = next
		}
		return nil
	case in.Op == isa.OpJmp:
		m.PC += uint64(in.Imm)
		return nil
	case in.Op == isa.OpJal:
		m.writeReg(in.Rd, next)
		m.PC += uint64(in.Imm)
		return nil
	case in.Op == isa.OpJalr:
		target := m.Regs[in.Ra] + uint64(in.Imm)
		m.writeReg(in.Rd, next)
		m.PC = target
		return nil
	case in.Op.ClassOf() == isa.ClassLoad:
		addr := isa.MemAddr(in, m.Regs[in.Ra])
		m.MemDigest = isa.DigestMix(m.MemDigest, addr<<1)
		var v uint64
		if in.Op == isa.OpLd {
			v = m.Mem.Read64(addr)
		} else {
			v = uint64(m.Mem.Read8(addr))
		}
		m.writeReg(in.Rd, v)
		m.PC = next
		return nil
	case in.Op.ClassOf() == isa.ClassStore:
		addr := isa.MemAddr(in, m.Regs[in.Ra])
		m.MemDigest = isa.DigestMix(m.MemDigest, addr<<1|1)
		if in.Op == isa.OpSt {
			m.Mem.Write64(addr, m.Regs[in.Rd])
		} else {
			m.Mem.Write8(addr, byte(m.Regs[in.Rd]))
		}
		m.PC = next
		return nil
	default:
		v, ok := isa.EvalALU(in, m.Regs[in.Ra], m.Regs[in.Rb], m.Regs[in.Rd])
		if !ok {
			return fmt.Errorf("emu: unimplemented opcode %v at pc=%#x", in.Op, m.PC)
		}
		m.writeReg(in.Rd, v)
		m.PC = next
		return nil
	}
}

// stepSJmp implements the secure jump: evaluate the real outcome, push a
// jbTable entry with the branch destination, snapshot the architectural
// registers, and always fall through to the not-taken path first, so the
// fetch stream is independent of the secret.
func (m *Machine) stepSJmp(in isa.Inst, next uint64) error {
	m.SJmps++
	m.Branches++
	taken := isa.BranchTaken(in.Op, m.Regs[in.Ra], m.Regs[in.Rb])
	target := m.PC + uint64(in.Imm)
	if m.ovfDepth > 0 || m.jb.Depth() >= m.jb.Cap() {
		// Nesting exceeded the SPM slots (or we are already inside a
		// downgraded region, whose nested secure branches cannot snapshot
		// either). Either fault or fall back to ordinary single-path
		// execution, per the configured policy.
		if !m.OverflowNonSecure {
			return fmt.Errorf("emu: at pc=%#x: %w (depth %d)", m.PC, sempe.ErrOverflow, m.jb.Depth())
		}
		m.NestOverflows++
		m.ovfDepth++
		if taken {
			m.PC = target
		} else {
			m.PC = next
		}
		return nil
	}
	_ = m.jb.Push(target, taken) // cannot fail: the depth check above left room
	if _, err := m.spm.PushInitial(&m.Regs); err != nil {
		return err
	}
	m.PC = next // NT path always first
	return nil
}

// stepEOSJmp implements the End-of-SecureJump marker. First commit: save the
// NT-modified registers, restore the initial state, and jump back to the
// taken-path target. Second commit: restore the correct final state per the
// branch outcome and pop the entry.
func (m *Machine) stepEOSJmp(next uint64) error {
	m.EOSJmps++
	if m.ovfDepth > 0 {
		// The innermost live region was downgraded to non-secure: its
		// single executed path reaches the join marker exactly once, and
		// the marker degenerates to a NOP. LIFO nesting guarantees this
		// eosJMP belongs to the downgraded region.
		m.ovfDepth--
		m.PC = next
		return nil
	}
	top, err := m.jb.Top()
	if err != nil {
		return fmt.Errorf("emu: eosJMP at pc=%#x: %w", m.PC, err)
	}
	if !top.JB {
		restore, mask, _ := m.spm.EndNTPath(&m.Regs)
		applyMasked(&m.Regs, &restore, mask)
		top.JB = true
		m.PC = top.Target
		return nil
	}
	final, mask, _ := m.spm.EndTPath(top.Taken, &m.Regs)
	applyMasked(&m.Regs, &final, mask)
	_ = m.jb.Pop() // cannot fail: Top found the entry
	m.PC = next
	return nil
}

func applyMasked(dst, src *[isa.NumArchRegs]uint64, mask uint64) {
	for r := 0; r < isa.NumArchRegs; r++ {
		if mask&(1<<uint(r)) != 0 {
			dst[r] = src[r]
		}
	}
}

// writeReg writes an architectural register, honoring the hardwired zero and
// informing the SPM modified-register tracking when inside a SecBlock.
func (m *Machine) writeReg(r isa.Reg, v uint64) {
	if r == isa.RZ {
		return
	}
	m.Regs[r] = v
	if m.Mode == SeMPE && m.jb.Depth() > 0 {
		m.inTPath = m.jb.InTPathFlags(m.inTPath)
		m.spm.MarkModified(r, m.inTPath)
	}
}

// fetch returns the instruction at PC, decoded from the program image as
// the core decodes it.
func (m *Machine) fetch() (isa.Inst, int, error) {
	off := m.PC - m.codeBase
	if off >= uint64(len(m.dec)) {
		return isa.Inst{}, 0, fmt.Errorf("%w %#x: outside the code image", ErrFetch, m.PC)
	}
	if e := &m.dec[off]; e.gen == m.decGen {
		return e.in, int(e.size), nil
	}
	in, size, err := isa.Decode(m.code, int(off))
	if err != nil {
		return in, 0, fmt.Errorf("%w %#x: %w", ErrFetch, m.PC, err)
	}
	m.dec[off] = decoded{in: in, size: uint8(size), gen: m.decGen}
	return in, size, nil
}
