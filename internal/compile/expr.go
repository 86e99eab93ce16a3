package compile

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/lang"
)

// expr lowers an expression, returning the register holding its value.
func (c *compiler) expr(e lang.Expr, remap map[string]string) (value, error) {
	switch e := e.(type) {
	case lang.IntLit:
		t := c.mustTemp()
		if e.V < -1<<31 || e.V > 1<<31-1 {
			return value{}, fmt.Errorf("literal %d exceeds 32-bit immediate", e.V)
		}
		c.emit(isa.Inst{Op: isa.OpLi, Rd: t, Imm: e.V})
		if e.Slot != "" {
			c.b.MarkImmSlot(e.Slot)
		}
		return value{t, true}, nil
	case lang.VarRef:
		r, ok := c.varReg[e.Name]
		if !ok {
			return value{}, fmt.Errorf("undefined variable %q", e.Name)
		}
		return value{r, false}, nil
	case lang.Index:
		return c.loadElem(c.remapArr(e.Arr, remap), e.Idx, remap)
	case lang.Bin:
		return c.binExpr(e, remap)
	case lang.Select:
		return c.selectExpr(e, remap)
	default:
		return value{}, fmt.Errorf("unknown expression %T", e)
	}
}

// selectExpr lowers the constant-time select: result = cond != 0 ? a : b,
// computed branch-free with full-width masks:
//
//	m = -(cond != 0); result = (a & m) | (b & ^m)
func (c *compiler) selectExpr(e lang.Select, remap map[string]string) (value, error) {
	cond, err := c.expr(e.Cond, remap)
	if err != nil {
		return value{}, err
	}
	m := c.mustTemp()
	c.emit(isa.Inst{Op: isa.OpSltu, Rd: m, Ra: isa.RZ, Rb: cond.reg})
	c.emit(isa.Inst{Op: isa.OpSub, Rd: m, Ra: isa.RZ, Rb: m})
	c.freeValue(cond)
	a, err := c.expr(e.A, remap)
	if err != nil {
		c.release(m)
		return value{}, err
	}
	ao := c.own(a)
	c.emit(isa.Inst{Op: isa.OpAnd, Rd: ao.reg, Ra: ao.reg, Rb: m})
	b, err := c.expr(e.B, remap)
	if err != nil {
		c.release(m)
		c.freeValue(ao)
		return value{}, err
	}
	c.emit(isa.Inst{Op: isa.OpXori, Rd: m, Ra: m, Imm: -1})
	bo := c.own(b)
	c.emit(isa.Inst{Op: isa.OpAnd, Rd: bo.reg, Ra: bo.reg, Rb: m})
	c.emit(isa.Inst{Op: isa.OpOr, Rd: ao.reg, Ra: ao.reg, Rb: bo.reg})
	c.release(m)
	c.freeValue(bo)
	return ao, nil
}

// immOp returns the immediate-form opcode for a binary operator, if any.
func immOp(op lang.BinOp) (isa.Op, bool) {
	switch op {
	case lang.Add:
		return isa.OpAddi, true
	case lang.Mul:
		return isa.OpMuli, true
	case lang.And:
		return isa.OpAndi, true
	case lang.Or:
		return isa.OpOri, true
	case lang.Xor:
		return isa.OpXori, true
	case lang.Shl:
		return isa.OpShli, true
	case lang.Shr:
		return isa.OpShri, true
	case lang.Lt:
		return isa.OpSlti, true
	case lang.Eq:
		return isa.OpSeqi, true
	}
	return 0, false
}

// regOp returns the register-form opcode plus post-processing needs.
func regOp(op lang.BinOp) (isa.Op, bool /*invert result*/, bool /*swap operands*/, error) {
	switch op {
	case lang.Add:
		return isa.OpAdd, false, false, nil
	case lang.Sub:
		return isa.OpSub, false, false, nil
	case lang.Mul:
		return isa.OpMul, false, false, nil
	case lang.Div:
		return isa.OpDiv, false, false, nil
	case lang.Rem:
		return isa.OpRem, false, false, nil
	case lang.And:
		return isa.OpAnd, false, false, nil
	case lang.Or:
		return isa.OpOr, false, false, nil
	case lang.Xor:
		return isa.OpXor, false, false, nil
	case lang.Shl:
		return isa.OpShl, false, false, nil
	case lang.Shr:
		return isa.OpShr, false, false, nil
	case lang.Lt:
		return isa.OpSlt, false, false, nil
	case lang.Ltu:
		return isa.OpSltu, false, false, nil
	case lang.Eq:
		return isa.OpSeq, false, false, nil
	case lang.Ne:
		return isa.OpSeq, true, false, nil
	case lang.Ge:
		return isa.OpSlt, true, false, nil
	case lang.Gt:
		return isa.OpSlt, false, true, nil
	}
	return 0, false, false, fmt.Errorf("unknown operator %d", op)
}

func (c *compiler) binExpr(e lang.Bin, remap map[string]string) (value, error) {
	// Immediate fast path: op with a literal right operand. The fused
	// instruction's imm32 is the literal itself, so a slotted literal takes
	// it too and marks the fused instruction as its patch site. The Sub
	// form carries the negated literal, which a template cannot patch with
	// the slot's value, so slots stay out of it.
	if lit, ok := e.B.(lang.IntLit); ok && fitsImm(lit.V) {
		if op, ok := immOp(e.Op); ok {
			a, err := c.expr(e.A, remap)
			if err != nil {
				return value{}, err
			}
			t := c.mustTemp()
			c.emit(isa.Inst{Op: op, Rd: t, Ra: a.reg, Imm: lit.V})
			if lit.Slot != "" {
				c.b.MarkImmSlot(lit.Slot)
			}
			c.freeValue(a)
			return value{t, true}, nil
		}
		if e.Op == lang.Sub && lit.Slot == "" && fitsImm(-lit.V) {
			a, err := c.expr(e.A, remap)
			if err != nil {
				return value{}, err
			}
			t := c.mustTemp()
			c.emit(isa.Inst{Op: isa.OpAddi, Rd: t, Ra: a.reg, Imm: -lit.V})
			c.freeValue(a)
			return value{t, true}, nil
		}
	}
	op, invert, swap, err := regOp(e.Op)
	if err != nil {
		return value{}, err
	}
	// Evaluate the deeper operand first (Sethi-Ullman order): expressions
	// are pure, so evaluation order is free, and doing the heavy side first
	// means at most one temporary is held across the heavy recursion. This
	// keeps register pressure constant even for right-deep trees.
	var a, b value
	if exprDepth(e.B) > exprDepth(e.A) {
		b, err = c.expr(e.B, remap)
		if err != nil {
			return value{}, err
		}
		a, err = c.expr(e.A, remap)
		if err != nil {
			c.freeValue(b)
			return value{}, err
		}
	} else {
		a, err = c.expr(e.A, remap)
		if err != nil {
			return value{}, err
		}
		b, err = c.expr(e.B, remap)
		if err != nil {
			c.freeValue(a)
			return value{}, err
		}
	}
	ra, rb := a.reg, b.reg
	if swap {
		ra, rb = rb, ra
	}
	t := c.mustTemp()
	c.emit(isa.Inst{Op: op, Rd: t, Ra: ra, Rb: rb})
	if invert {
		c.emit(isa.Inst{Op: isa.OpXori, Rd: t, Ra: t, Imm: 1})
	}
	c.freeValue(a)
	c.freeValue(b)
	return value{t, true}, nil
}

func fitsImm(v int64) bool { return v >= -1<<31 && v <= 1<<31-1 }

// exprDepth measures tree depth for evaluation-order selection (capped; the
// exact value only matters for choosing which side to evaluate first).
func exprDepth(e lang.Expr) int {
	switch e := e.(type) {
	case lang.Bin:
		da, db := exprDepth(e.A), exprDepth(e.B)
		if db > da {
			da = db
		}
		return da + 1
	case lang.Select:
		d := exprDepth(e.Cond)
		if x := exprDepth(e.A); x > d {
			d = x
		}
		if x := exprDepth(e.B); x > d {
			d = x
		}
		return d + 1
	case lang.Index:
		return exprDepth(e.Idx) + 1
	default:
		return 0
	}
}

// elemAddr computes the address of arr[idx] into an owned register.
func (c *compiler) elemAddr(arr string, idx lang.Expr, remap map[string]string) (value, error) {
	base, ok := c.arrAddr[arr]
	if !ok {
		return value{}, fmt.Errorf("undefined array %q", arr)
	}
	// Constant indices fold base+8*idx into one LI — unless the literal is
	// slotted, whose LI must carry the raw value for template patching.
	if lit, isLit := idx.(lang.IntLit); isLit && lit.Slot == "" {
		t := c.mustTemp()
		c.emit(isa.Inst{Op: isa.OpLi, Rd: t, Imm: int64(base) + 8*lit.V})
		return value{t, true}, nil
	}
	iv, err := c.expr(idx, remap)
	if err != nil {
		return value{}, err
	}
	t := c.mustTemp()
	c.emit(isa.Inst{Op: isa.OpShli, Rd: t, Ra: iv.reg, Imm: 3})
	c.freeValue(iv)
	tb := c.mustTemp()
	c.emit(isa.Inst{Op: isa.OpLi, Rd: tb, Imm: int64(base)})
	c.emit(isa.Inst{Op: isa.OpAdd, Rd: t, Ra: t, Rb: tb})
	c.release(tb)
	return value{t, true}, nil
}

// loadElem loads arr[idx] into an owned register.
func (c *compiler) loadElem(arr string, idx lang.Expr, remap map[string]string) (value, error) {
	addr, err := c.elemAddr(arr, idx, remap)
	if err != nil {
		return value{}, err
	}
	c.emit(isa.Inst{Op: isa.OpLd, Rd: addr.reg, Ra: addr.reg})
	return addr, nil
}

// storeElem stores val into arr[idx].
func (c *compiler) storeElem(arr string, idx lang.Expr, val value, remap map[string]string) error {
	addr, err := c.elemAddr(arr, idx, remap)
	if err != nil {
		return err
	}
	c.emit(isa.Inst{Op: isa.OpSt, Rd: val.reg, Ra: addr.reg})
	c.freeValue(addr)
	return nil
}
