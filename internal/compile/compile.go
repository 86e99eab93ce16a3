// Package compile lowers lang programs to the simulated ISA through three
// interchangeable backends, mirroring the paper's methodology:
//
//   - Plain: ordinary conditional branches. This is the unprotected baseline
//     and the exact program CTE and SeMPE are compared against.
//   - SeMPE: secret ifs become sJMP/eosJMP secure regions. Registers need no
//     software privatization (the ArchRS hardware restores them); arrays that
//     outlive a secure region are privatized via ShadowMemory copies and
//     merged after the region with constant-time CMOV selects.
//   - CTE: secret ifs become FaCT-style straight-line code: conditions turn
//     into full-width masks and every assignment in either path executes with
//     a masked select. Each statement pays for the conjunction of all
//     enclosing masks, which is why CTE cost grows super-linearly with
//     nesting depth (paper Fig. 2 and Fig. 10).
//
// One lang program therefore produces three binaries whose measured cycle
// counts regenerate the paper's comparisons.
package compile

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/lang"
)

// Mode selects the lowering backend.
type Mode int

// Backends.
const (
	Plain Mode = iota
	SeMPE
	CTE
)

func (m Mode) String() string {
	switch m {
	case Plain:
		return "plain"
	case SeMPE:
		return "sempe"
	case CTE:
		return "cte"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrExprTooDeep reports an expression that needs more temporary registers
// than the compiler has (numTempRegs). Splitting it across assignments to
// intermediate variables compiles.
var ErrExprTooDeep = errors.New("compile: expression too deep (out of temporaries)")

// outOfTemps is the panic value mustTemp raises on exhaustion; Compile
// recovers it into ErrExprTooDeep, so no lowering path needs its own check.
type outOfTemps struct{}

// Register plan. Temporaries serve expression evaluation; scratch registers
// serve CTE selects and shadow merges; mask registers hold the CTE mask
// stack; everything from firstVarReg up to the mode's limit holds program
// scalars.
const (
	firstTempReg = 3
	numTempRegs  = 5 // r3..r7
	firstVarReg  = 8
	lastVarReg   = 35 // r8..r35: up to 28 scalars
	firstMaskReg = 36 // r36..r45: CTE mask stack, depth 10
	maxMaskDepth = 10
	scratchRegA  = 46
	scratchRegB  = 47
)

// MaxSecretNesting bounds SeMPE secret-region nesting, matching the SPM's
// 30 snapshot slots.
const MaxSecretNesting = 30

// Output is a compiled program plus the metadata harnesses need.
type Output struct {
	Prog    *isa.Program
	Mode    Mode
	VarRegs map[string]isa.Reg
	// ResultBase is the address of the result block: one 64-bit slot per
	// scalar variable, in declaration order, stored just before halt.
	ResultBase uint64
	VarOrder   []string
	ArrayAddrs map[string]uint64
	// ImmSlots maps each named literal slot (lang.NS) to the code byte
	// offsets (relative to Prog.CodeBase) of the instructions whose imm32
	// carries it (load-immediates and fused immediate-form operations);
	// nil when the program declares none.
	ImmSlots map[string][]int
}

// ResultAddr returns the address of a variable's result slot.
func (o *Output) ResultAddr(name string) (uint64, error) {
	for i, n := range o.VarOrder {
		if n == name {
			return o.ResultBase + uint64(8*i), nil
		}
	}
	return 0, fmt.Errorf("compile: no result slot for %q", name)
}

// Compile lowers p with the selected backend.
func Compile(p *lang.Program, mode Mode) (out *Output, err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(outOfTemps); !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("compile(%v): %w", mode, ErrExprTooDeep)
		}
	}()
	c := &compiler{
		mode:    mode,
		b:       asm.NewBuilder(),
		prog:    p,
		varReg:  make(map[string]isa.Reg),
		arrays:  make(map[string]*lang.ArrayDecl),
		arrAddr: make(map[string]uint64),
	}
	if out, err = c.compile(); err != nil {
		return nil, fmt.Errorf("compile(%v): %w", mode, err)
	}
	return out, nil
}

// MustCompile panics on error; for harness code with known-good programs.
func MustCompile(p *lang.Program, mode Mode) *Output {
	out, err := Compile(p, mode)
	if err != nil {
		panic(err)
	}
	return out
}

type compiler struct {
	mode    Mode
	b       *asm.Builder
	prog    *lang.Program
	varReg  map[string]isa.Reg
	arrays  map[string]*lang.ArrayDecl
	arrAddr map[string]uint64

	tempInUse [numTempRegs]bool

	// SeMPE state.
	secDepth     int
	condSlotBase uint64
	shadowID     int
	shadowInfo   map[*lang.If]*shadowPlan

	// CTE state: the mask stack. Each level is the register holding the
	// full-width mask of that secret condition plus whether the current
	// path is the else side (mask complemented).
	maskStack []maskLevel
}

type maskLevel struct {
	reg     isa.Reg
	negated bool
}

func (c *compiler) compile() (*Output, error) {
	// Declarations.
	for _, a := range c.prog.Arrays {
		c.arrays[a.Name] = a
		c.arrAddr[a.Name] = c.b.DataWords(a.Name, a.Len, a.Init)
	}
	if len(c.prog.Vars) > lastVarReg-firstVarReg+1 {
		return nil, fmt.Errorf("too many scalars (%d, max %d)",
			len(c.prog.Vars), lastVarReg-firstVarReg+1)
	}
	varOrder := make([]string, 0, len(c.prog.Vars))
	for i, v := range c.prog.Vars {
		c.varReg[v.Name] = isa.Reg(firstVarReg + i)
		varOrder = append(varOrder, v.Name)
	}
	resultBase := c.b.Data("__result", 8*len(c.prog.Vars)+8)
	c.condSlotBase = c.b.Data("__sempe_cond", 8*MaxSecretNesting)

	// Shadow planning must happen before code generation so shadow arrays
	// have data addresses.
	if c.mode == SeMPE {
		if err := c.planShadows(); err != nil {
			return nil, err
		}
	}

	// Prologue: initialize scalars.
	c.b.Label("main")
	for _, v := range c.prog.Vars {
		c.emit(isa.Inst{Op: isa.OpLi, Rd: c.varReg[v.Name], Imm: v.Init})
	}

	if err := c.stmts(c.prog.Body, nil); err != nil {
		return nil, err
	}

	// Epilogue: spill every scalar to its result slot, then halt.
	for i, v := range c.prog.Vars {
		t := c.mustTemp()
		c.emit(isa.Inst{Op: isa.OpLi, Rd: t, Imm: int64(resultBase + uint64(8*i))})
		c.emit(isa.Inst{Op: isa.OpSt, Rd: c.varReg[v.Name], Ra: t})
		c.release(t)
	}
	c.emit(isa.Inst{Op: isa.OpHalt})

	prog, err := c.b.Finish()
	if err != nil {
		return nil, err
	}
	return &Output{
		Prog:       prog,
		Mode:       c.mode,
		VarRegs:    c.varReg,
		ResultBase: resultBase,
		VarOrder:   varOrder,
		ArrayAddrs: c.arrAddr,
		ImmSlots:   c.b.ImmSlotOffsets(),
	}, nil
}

func (c *compiler) emit(in isa.Inst) { c.b.Emit(in) }

func (c *compiler) emitRef(in isa.Inst, label string) { c.b.EmitRef(in, label) }

// Temporary register management.

func (c *compiler) mustTemp() isa.Reg {
	for i := range c.tempInUse {
		if !c.tempInUse[i] {
			c.tempInUse[i] = true
			return isa.Reg(firstTempReg + i)
		}
	}
	panic(outOfTemps{})
}

func (c *compiler) release(r isa.Reg) {
	if r >= firstTempReg && r < firstTempReg+numTempRegs {
		c.tempInUse[r-firstTempReg] = false
	}
}

// value is an expression result: a register plus whether the compiler owns
// it (temporaries are owned and must be released; variable registers are
// borrowed and must not be written).
type value struct {
	reg   isa.Reg
	owned bool
}

func (c *compiler) freeValue(v value) {
	if v.owned {
		c.release(v.reg)
	}
}

// own returns a register that may be written: v itself when owned, or a
// fresh temporary holding a copy.
func (c *compiler) own(v value) value {
	if v.owned {
		return v
	}
	t := c.mustTemp()
	c.emit(isa.Inst{Op: isa.OpAdd, Rd: t, Ra: v.reg, Rb: isa.RZ})
	return value{t, true}
}

// stmts lowers a statement list under the given array remapping (SeMPE
// ShadowMemory substitution; nil means identity).
func (c *compiler) stmts(ss []lang.Stmt, remap map[string]string) error {
	for _, s := range ss {
		if err := c.stmt(s, remap); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s lang.Stmt, remap map[string]string) error {
	switch s := s.(type) {
	case *lang.Assign:
		if c.mode == CTE && len(c.maskStack) > 0 {
			return c.cteAssign(s, remap)
		}
		v, err := c.expr(s.E, remap)
		if err != nil {
			return err
		}
		c.emit(isa.Inst{Op: isa.OpAdd, Rd: c.varReg[s.Name], Ra: v.reg, Rb: isa.RZ})
		c.freeValue(v)
		return nil
	case *lang.Store:
		if c.mode == CTE && len(c.maskStack) > 0 {
			return c.cteStore(s, remap)
		}
		val, err := c.expr(s.Val, remap)
		if err != nil {
			return err
		}
		err = c.storeElem(c.remapArr(s.Arr, remap), s.Idx, val, remap)
		c.freeValue(val)
		return err
	case *lang.If:
		if s.Secret {
			switch c.mode {
			case SeMPE:
				return c.sempeIf(s, remap)
			case CTE:
				return c.cteIf(s, remap)
			}
		}
		return c.plainIf(s, remap)
	case *lang.While:
		return c.while(s, remap)
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// plainIf lowers a conditional to an ordinary branch (used by the Plain
// backend for everything, and by all backends for public conditions).
func (c *compiler) plainIf(s *lang.If, remap map[string]string) error {
	cond, err := c.expr(s.Cond, remap)
	if err != nil {
		return err
	}
	elseL := c.b.FreshLabel("else")
	endL := c.b.FreshLabel("endif")
	c.emitRef(isa.Inst{Op: isa.OpBeq, Ra: cond.reg, Rb: isa.RZ}, elseL)
	c.freeValue(cond)
	if err := c.stmts(s.Then, remap); err != nil {
		return err
	}
	if len(s.Else) > 0 {
		c.emitRef(isa.Inst{Op: isa.OpJmp}, endL)
	}
	c.b.Label(elseL)
	if err := c.stmts(s.Else, remap); err != nil {
		return err
	}
	c.b.Label(endL)
	return c.b.Err()
}

func (c *compiler) while(s *lang.While, remap map[string]string) error {
	if c.mode == CTE && len(c.maskStack) > 0 {
		return fmt.Errorf("CTE: loop inside a secret region is not supported (bound it and rewrite obliviously)")
	}
	loopL := c.b.FreshLabel("loop")
	endL := c.b.FreshLabel("endloop")
	c.b.Label(loopL)
	cond, err := c.expr(s.Cond, remap)
	if err != nil {
		return err
	}
	c.emitRef(isa.Inst{Op: isa.OpBeq, Ra: cond.reg, Rb: isa.RZ}, endL)
	c.freeValue(cond)
	if err := c.stmts(s.Body, remap); err != nil {
		return err
	}
	c.emitRef(isa.Inst{Op: isa.OpJmp}, loopL)
	c.b.Label(endL)
	return c.b.Err()
}

func (c *compiler) remapArr(name string, remap map[string]string) string {
	if remap != nil {
		if to, ok := remap[name]; ok {
			return to
		}
	}
	return name
}
