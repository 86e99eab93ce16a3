// Package lang defines a tiny structured language used to express the
// paper's workloads once and lower them three ways (internal/compile):
// unprotected branches (baseline), SeMPE sJMP/eosJMP instrumentation, and
// FaCT-style constant-time expressions (CTE).
//
// The language is deliberately FaCT-shaped: integer scalars and fixed-size
// arrays, expressions, assignments, while loops, and if statements that can
// be marked secret (the paper's "@secret" directive). There are no function
// calls, function pointers, or floating point — the same restrictions the
// paper reports for FaCT.
package lang

import "fmt"

// Program is a compilation unit: declarations plus a statement body. The
// body ends with an implicit halt.
type Program struct {
	Name   string
	Vars   []*VarDecl
	Arrays []*ArrayDecl
	Body   []Stmt
}

// VarDecl declares a scalar (64-bit) variable, register-allocated by the
// compiler. Secret marks the value as sensitive; the compiler's taint
// checker warns when a secret value reaches an unprotected branch.
type VarDecl struct {
	Name   string
	Init   int64
	Secret bool
}

// ArrayDecl declares a fixed-size array of 64-bit words in data memory.
// LiveOut marks the contents as observable after the program ends (e.g. an
// output buffer); arrays written inside secret branch paths need shadow
// copies only when they are live-out or read later.
type ArrayDecl struct {
	Name    string
	Len     int
	Init    []uint64
	Secret  bool
	LiveOut bool
}

// Expr is an expression node.
type Expr interface {
	isExpr()
	String() string
}

// IntLit is an integer literal. A non-empty Slot names the literal as a
// patchable template slot: the compiler records the code offset of the
// instruction whose imm32 carries it — its own load-immediate, or the
// immediate-form operation it fuses into as a right operand — so
// compile.Template can rewrite the value per run without recompiling. A
// slotted literal is never folded into a different immediate (a negated
// Sub operand, a constant array address). The slot name has no effect on
// the emitted code or on program semantics.
type IntLit struct {
	V    int64
	Slot string
}

// VarRef reads a scalar variable.
type VarRef struct{ Name string }

// Index reads an array element: Arr[Idx].
type Index struct {
	Arr string
	Idx Expr
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Lt  // signed <, yields 0/1
	Ltu // unsigned <
	Eq
	Ne
	Ge // signed >=
	Gt // signed >
)

var binOpNames = map[BinOp]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	And: "&", Or: "|", Xor: "^", Shl: "<<", Shr: ">>",
	Lt: "<", Ltu: "<u", Eq: "==", Ne: "!=", Ge: ">=", Gt: ">",
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Select is a constant-time conditional expression: Cond != 0 ? A : B,
// lowered branch-free with full-width masks. It is the ct_select primitive
// constant-time code (FaCT's ternary on secrets) is built from; hand-written
// CT workload variants use it instead of secret ifs.
type Select struct {
	Cond Expr
	A, B Expr
}

func (IntLit) isExpr() {}
func (VarRef) isExpr() {}
func (Index) isExpr()  {}
func (Bin) isExpr()    {}
func (Select) isExpr() {}

func (e Select) String() string {
	return fmt.Sprintf("sel(%s, %s, %s)", e.Cond, e.A, e.B)
}

func (e IntLit) String() string { return fmt.Sprintf("%d", e.V) }
func (e VarRef) String() string { return e.Name }
func (e Index) String() string  { return fmt.Sprintf("%s[%s]", e.Arr, e.Idx) }
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.A, binOpNames[e.Op], e.B)
}

// Stmt is a statement node.
type Stmt interface {
	isStmt()
}

// Assign sets a scalar: Name = E.
type Assign struct {
	Name string
	E    Expr
}

// Store writes an array element: Arr[Idx] = Val.
type Store struct {
	Arr string
	Idx Expr
	Val Expr
}

// If is a conditional. Secret marks the condition as secret-dependent: the
// SeMPE backend lowers it to sJMP/eosJMP, the CTE backend to masked
// straight-line code, and the plain backend to an ordinary branch (leaky).
type If struct {
	Cond   Expr
	Secret bool
	Then   []Stmt
	Else   []Stmt
}

// While loops while Cond is nonzero. Secret loop conditions are rejected by
// every backend (the paper's restriction: collapse or bound such loops).
type While struct {
	Cond Expr
	Body []Stmt
}

func (*Assign) isStmt() {}
func (*Store) isStmt()  {}
func (*If) isStmt()     {}
func (*While) isStmt()  {}

// Convenience constructors keep workload definitions readable.

// N builds an integer literal.
func N(v int64) Expr { return IntLit{V: v} }

// NS builds an integer literal carried in a named template patch slot. The
// same slot name may appear at several points in a program; a template
// patches every such site with one value, so all sites of a slot must be
// built with the same base literal.
func NS(slot string, v int64) Expr { return IntLit{V: v, Slot: slot} }

// V reads a variable.
func V(name string) Expr { return VarRef{name} }

// At reads arr[idx].
func At(arr string, idx Expr) Expr { return Index{arr, idx} }

// B applies a binary operator.
func B(op BinOp, a, b Expr) Expr { return Bin{op, a, b} }

// Sel builds a constant-time select expression.
func Sel(cond, a, b Expr) Expr { return Select{cond, a, b} }

// Set assigns a scalar.
func Set(name string, e Expr) Stmt { return &Assign{name, e} }

// Put stores to an array element.
func Put(arr string, idx, val Expr) Stmt { return &Store{arr, idx, val} }

// SecretIf builds a secret-dependent conditional.
func SecretIf(cond Expr, then, els []Stmt) Stmt {
	return &If{Cond: cond, Secret: true, Then: then, Else: els}
}

// PublicIf builds an ordinary conditional.
func PublicIf(cond Expr, then, els []Stmt) Stmt {
	return &If{Cond: cond, Then: then, Else: els}
}

// Loop builds a while loop.
func Loop(cond Expr, body []Stmt) Stmt { return &While{Cond: cond, Body: body} }

// Validate checks structural well-formedness: unique names, defined
// references, array bounds on constant indices, and no secret loop
// conditions.
func (p *Program) Validate() error {
	vars := map[string]bool{}
	arrays := map[string]int{}
	for _, v := range p.Vars {
		if vars[v.Name] || arrays[v.Name] != 0 {
			return fmt.Errorf("lang: duplicate declaration %q", v.Name)
		}
		vars[v.Name] = true
	}
	for _, a := range p.Arrays {
		if vars[a.Name] || arrays[a.Name] != 0 {
			return fmt.Errorf("lang: duplicate declaration %q", a.Name)
		}
		if a.Len <= 0 {
			return fmt.Errorf("lang: array %q has length %d", a.Name, a.Len)
		}
		if len(a.Init) > a.Len {
			return fmt.Errorf("lang: array %q init longer than array", a.Name)
		}
		arrays[a.Name] = a.Len
	}
	var checkExpr func(e Expr) error
	checkExpr = func(e Expr) error {
		switch e := e.(type) {
		case IntLit:
			return nil
		case VarRef:
			if !vars[e.Name] {
				return fmt.Errorf("lang: undefined variable %q", e.Name)
			}
		case Index:
			n, ok := arrays[e.Arr]
			if !ok {
				return fmt.Errorf("lang: undefined array %q", e.Arr)
			}
			if lit, isLit := e.Idx.(IntLit); isLit && (lit.V < 0 || lit.V >= int64(n)) {
				return fmt.Errorf("lang: %s[%d] out of bounds (len %d)", e.Arr, lit.V, n)
			}
			return checkExpr(e.Idx)
		case Bin:
			if err := checkExpr(e.A); err != nil {
				return err
			}
			return checkExpr(e.B)
		case Select:
			if err := checkExpr(e.Cond); err != nil {
				return err
			}
			if err := checkExpr(e.A); err != nil {
				return err
			}
			return checkExpr(e.B)
		}
		return nil
	}
	var checkStmts func(ss []Stmt) error
	checkStmts = func(ss []Stmt) error {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				if !vars[s.Name] {
					return fmt.Errorf("lang: assignment to undefined %q", s.Name)
				}
				if err := checkExpr(s.E); err != nil {
					return err
				}
			case *Store:
				if _, ok := arrays[s.Arr]; !ok {
					return fmt.Errorf("lang: store to undefined array %q", s.Arr)
				}
				if err := checkExpr(s.Idx); err != nil {
					return err
				}
				if err := checkExpr(s.Val); err != nil {
					return err
				}
			case *If:
				if err := checkExpr(s.Cond); err != nil {
					return err
				}
				if err := checkStmts(s.Then); err != nil {
					return err
				}
				if err := checkStmts(s.Else); err != nil {
					return err
				}
			case *While:
				if err := checkExpr(s.Cond); err != nil {
					return err
				}
				if err := checkStmts(s.Body); err != nil {
					return err
				}
			default:
				return fmt.Errorf("lang: unknown statement %T", s)
			}
		}
		return nil
	}
	return checkStmts(p.Body)
}
