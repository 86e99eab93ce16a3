package workloads

import (
	"fmt"

	"repro/internal/lang"
)

// HarnessSpec parameterizes the Fig. 7 microbenchmark: W secret branches per
// iteration in an else-chained shape (nesting depth W-1), I iterations of
// the whole secure region, and the secret whose bits select which kernel
// instance the baseline actually runs.
type HarnessSpec struct {
	Kind   Kind
	Size   int    // kernel size parameter; 0 means Kind.DefaultSize()
	W      int    // secret branches per iteration (1..10)
	I      int    // iterations
	Secret uint64 // bit i-1 drives the i-th secret branch
}

func (s HarnessSpec) String() string {
	return fmt.Sprintf("%s/W=%d/I=%d", s.Kind, s.W, s.I)
}

func (s HarnessSpec) size() int {
	if s.Size > 0 {
		return s.Size
	}
	return s.Kind.DefaultSize()
}

// Harness builds the structured microbenchmark program:
//
//	for iter in 0..I:
//	    if (bit 0 of s) { kernel } else
//	    if (bit 1 of s) { kernel } else
//	    ...
//	    if (bit W-1 of s) { kernel } else { kernel }   // W+1 instances
//
// Compiled with the Plain backend it is the unprotected baseline, which
// executes exactly one kernel instance per iteration; with the SeMPE
// backend every instance executes, so the expected ideal slowdown is the
// sum of all path times (≈ W+1, paper §IV-A and Fig. 10).
func Harness(spec HarnessSpec) *lang.Program {
	if spec.W < 1 {
		panic("workloads: W must be >= 1")
	}
	n := spec.size()
	kVars, kArrs := decls(spec.Kind, n)
	vars := append([]*lang.VarDecl{
		{Name: "s", Init: int64(spec.Secret), Secret: true},
		{Name: "iter", Init: 0},
		{Name: "cksum", Init: 0},
		{Name: "bit", Init: 0},
	}, kVars...)

	var chain func(level int) []lang.Stmt
	chain = func(level int) []lang.Stmt {
		if level > spec.W {
			return body(spec.Kind, n) // the final else: instance W+1
		}
		cond := lang.B(lang.And,
			lang.B(lang.Shr, lang.V("s"), lang.N(int64(level-1))), lang.N(1))
		return []lang.Stmt{
			lang.SecretIf(cond, body(spec.Kind, n), chain(level+1)),
		}
	}

	loop := lang.Loop(lang.B(lang.Lt, lang.V("iter"), lang.N(int64(spec.I))),
		append(chain(1),
			lang.Set("iter", lang.B(lang.Add, lang.V("iter"), lang.N(1)))))

	return &lang.Program{
		Name:   fmt.Sprintf("%s_w%d", spec.Kind, spec.W),
		Vars:   vars,
		Arrays: kArrs,
		Body:   []lang.Stmt{loop},
	}
}

// HarnessCT builds the hand-written constant-time analogue of Harness — the
// program a FaCT developer would produce. All W+1 kernel instances execute
// every iteration as straight-line constant-time code; instance i's writes
// are gated on the chain mask
//
//	(1-c_1) & (1-c_2) & ... & (1-c_{i-1}) & c_i
//
// re-evaluated per statement, so per-statement cost grows with the nesting
// level — the super-linear CTE blowup of the paper's Fig. 2 and Fig. 10.
// The result is an ordinary binary for the baseline architecture.
func HarnessCT(spec HarnessSpec) *lang.Program {
	if spec.W < 1 {
		panic("workloads: W must be >= 1")
	}
	n := spec.size()
	kVars, kArrs := ctDecls(spec.Kind, n)
	vars := []*lang.VarDecl{
		{Name: "s", Init: int64(spec.Secret), Secret: true},
		{Name: "iter", Init: 0},
		{Name: "cksum", Init: 0},
	}
	condNames := make([]string, spec.W)
	for i := range condNames {
		condNames[i] = fmt.Sprintf("c%d", i+1)
		vars = append(vars, &lang.VarDecl{Name: condNames[i], Secret: true})
	}
	vars = append(vars, kVars...)

	var iterBody []lang.Stmt
	for i, c := range condNames {
		iterBody = append(iterBody, lang.Set(c,
			lang.B(lang.And, lang.B(lang.Shr, lang.V("s"), lang.N(int64(i))), lang.N(1))))
	}
	for level := 1; level <= spec.W+1; level++ {
		iterBody = append(iterBody, ctBody(spec.Kind, n, chainMask(condNames, level))...)
	}
	iterBody = append(iterBody,
		lang.Set("iter", lang.B(lang.Add, lang.V("iter"), lang.N(1))))

	loop := lang.Loop(lang.B(lang.Lt, lang.V("iter"), lang.N(int64(spec.I))), iterBody)
	return &lang.Program{
		Name:   fmt.Sprintf("%s_ct_w%d", spec.Kind, spec.W),
		Vars:   vars,
		Arrays: kArrs,
		Body:   []lang.Stmt{loop},
	}
}

// chainMask builds the level's activation expression. For level <= W it is
// the conjunction of the complements of all earlier conditions with the
// level's own condition; for level W+1 it is the conjunction of all
// complements (the final else).
func chainMask(conds []string, level int) lang.Expr {
	var e lang.Expr
	and := func(t lang.Expr) {
		if e == nil {
			e = t
		} else {
			e = lang.B(lang.And, e, t)
		}
	}
	for j := 0; j < level-1 && j < len(conds); j++ {
		and(lang.B(lang.Xor, lang.V(conds[j]), lang.N(1)))
	}
	if level <= len(conds) {
		and(lang.V(conds[level-1]))
	}
	if e == nil {
		e = lang.N(1)
	}
	return e
}
