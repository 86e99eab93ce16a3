// Package workloads implements the paper's four microbenchmark kernels —
// Fibonacci, Ones, Quicksort, and the Eight Queens problem (§V) — each in
// two source forms:
//
//   - a structured form (plain conditionals inside secret branches), used
//     for the unprotected baseline and, via the SeMPE backend, for the
//     secure-architecture runs; and
//   - a hand-written constant-time form built from ct-select expressions,
//     the analogue of the FaCT rewrites the paper spent three weeks on.
//
// The harness (harness.go) arranges W secret branches per iteration in the
// else-chained shape of the paper's Fig. 7, so a baseline run executes
// exactly one kernel instance per iteration while SeMPE executes all W+1.
package workloads

import (
	"fmt"

	"repro/internal/lang"
)

// Kind identifies a microbenchmark kernel.
type Kind int

// The paper's four kernels.
const (
	Fibonacci Kind = iota
	Ones
	Quicksort
	Queens
)

// All returns every kernel, in the paper's order.
func All() []Kind { return []Kind{Fibonacci, Ones, Quicksort, Queens} }

// Parse returns the kernel named s ("fibonacci", "ones", "quicksort",
// "queens") — the inverse of Kind.String, shared by the scenario specs and
// the cmd tools.
func Parse(s string) (Kind, error) {
	for _, k := range All() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown kernel %q (have fibonacci|ones|quicksort|queens)", s)
}

func (k Kind) String() string {
	switch k {
	case Fibonacci:
		return "fibonacci"
	case Ones:
		return "ones"
	case Quicksort:
		return "quicksort"
	case Queens:
		return "queens"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DefaultSize returns the kernel's size parameter used by the benchmarks.
// These are scaled down from the paper's >=100M-instruction runs so a full
// sweep simulates in minutes; EXPERIMENTS.md records the scaling.
func (k Kind) DefaultSize() int {
	switch k {
	case Fibonacci:
		return 200 // terms (wraps mod 2^64 past fib(93); the checksum is still deterministic)
	case Ones:
		return 48 // vector length
	case Quicksort:
		return 32 // array length
	case Queens:
		return 4 // board size (paper uses 8; see EXPERIMENTS.md)
	}
	return 16
}

// MaxSize bounds the kernel's size parameter: at it, one -w 1 -i 1
// harness simulates in under two seconds on the SeMPE core. The cmd tools
// reject a larger size; at queens -n 40 or fibonacci -n 100000000 one run
// was still going after 10 s.
func (k Kind) MaxSize() int {
	switch k {
	case Fibonacci:
		return 200000
	case Ones:
		return 48000
	case Quicksort:
		return 8192
	case Queens:
		return 8 // the paper's board
	}
	return 16
}

// MaxIters bounds harness iterations, shared by the scenario specs and the
// cmd tools: one fig10a point at W=10 took 73 ms at 8 iterations and 10 s
// at 800.
const MaxIters = 64

// decls returns the scalar and array declarations one kernel instance
// needs. Kernel state is shared by all chain levels: every body initializes
// its state before reading it (write-before-read), which is what makes the
// sharing safe under SeMPE's NT-first dual-path execution.
func decls(k Kind, n int) ([]*lang.VarDecl, []*lang.ArrayDecl) {
	switch k {
	case Fibonacci:
		return []*lang.VarDecl{
			{Name: "fa"}, {Name: "fb"}, {Name: "ft"}, {Name: "fi"},
		}, nil
	case Ones:
		return []*lang.VarDecl{
				{Name: "ov"}, {Name: "oi"}, {Name: "ocnt"},
			}, []*lang.ArrayDecl{
				{Name: "ovec", Len: n},
			}
	case Quicksort:
		return []*lang.VarDecl{
				{Name: "qv"}, {Name: "qi"}, {Name: "qj"}, {Name: "qlo"},
				{Name: "qhi"}, {Name: "qsp"}, {Name: "qpiv"}, {Name: "qtmp"},
				{Name: "qsn"}, {Name: "qp"},
			}, []*lang.ArrayDecl{
				{Name: "qdata", Len: n},
				{Name: "qstk", Len: 4*n + 8},
			}
	case Queens:
		return []*lang.VarDecl{
				{Name: "nrow"}, {Name: "nc"}, {Name: "nfound"}, {Name: "nr"},
				{Name: "nok"}, {Name: "ntmp"}, {Name: "nd1"}, {Name: "nd2"},
				{Name: "ncf"}, {Name: "nsol"},
			}, []*lang.ArrayDecl{
				{Name: "ncol", Len: n},
			}
	}
	panic("workloads: unknown kind")
}

// ctDecls returns declarations for the constant-time variant (the Queens
// odometer uses different state than the backtracking version).
func ctDecls(k Kind, n int) ([]*lang.VarDecl, []*lang.ArrayDecl) {
	if k != Queens {
		return decls(k, n)
	}
	vars := []*lang.VarDecl{
		{Name: "nk"}, {Name: "nvalid"}, {Name: "ncf"}, {Name: "nd"},
		{Name: "ncar"}, {Name: "nsol"},
	}
	for i := 0; i < n; i++ {
		vars = append(vars, &lang.VarDecl{Name: fmt.Sprintf("no%d", i)})
	}
	return vars, nil
}

// seedStmt derives the kernel's data seed from the public iteration
// counter. Seeding from public state keeps kernel data independent of the
// secret, so public data-dependent branches inside the kernels (quicksort's
// comparisons) behave identically for every secret — required for the
// indistinguishability property and true of the paper's setup, where the
// secret only selects which branch path runs.
func seedStmt(dst string) lang.Stmt {
	return lang.Set(dst, lang.B(lang.Add, lang.N(12345),
		lang.B(lang.Mul, lang.V("iter"), lang.N(48271))))
}

// lcg advances v with a 16-bit-style linear congruential step.
func lcg(v string) lang.Expr {
	return lang.B(lang.And,
		lang.B(lang.Add, lang.B(lang.Mul, lang.V(v), lang.N(25173)), lang.N(13849)),
		lang.N(0xFFFFFF))
}

// body returns the structured kernel: compute, then fold the result into
// cksum. n is the size parameter.
func body(k Kind, n int) []lang.Stmt {
	switch k {
	case Fibonacci:
		return []lang.Stmt{
			lang.Set("fa", lang.N(0)),
			lang.Set("fb", lang.N(1)),
			lang.Set("fi", lang.N(0)),
			lang.Loop(lang.B(lang.Lt, lang.V("fi"), lang.N(int64(n))), []lang.Stmt{
				lang.Set("ft", lang.B(lang.Add, lang.V("fa"), lang.V("fb"))),
				lang.Set("fa", lang.V("fb")),
				lang.Set("fb", lang.V("ft")),
				lang.Set("fi", lang.B(lang.Add, lang.V("fi"), lang.N(1))),
			}),
			lang.Set("cksum", lang.B(lang.Add, lang.V("cksum"), lang.V("fb"))),
		}
	case Ones:
		return []lang.Stmt{
			seedStmt("ov"),
			lang.Set("oi", lang.N(0)),
			lang.Loop(lang.B(lang.Lt, lang.V("oi"), lang.N(int64(n))), []lang.Stmt{
				lang.Set("ov", lcg("ov")),
				lang.Put("ovec", lang.V("oi"), lang.V("ov")),
				lang.Set("oi", lang.B(lang.Add, lang.V("oi"), lang.N(1))),
			}),
			lang.Set("ocnt", lang.N(0)),
			lang.Set("oi", lang.N(0)),
			lang.Loop(lang.B(lang.Lt, lang.V("oi"), lang.N(int64(n))), []lang.Stmt{
				lang.Set("ocnt", lang.B(lang.Add, lang.V("ocnt"),
					lang.B(lang.And, lang.At("ovec", lang.V("oi")), lang.N(1)))),
				lang.Set("oi", lang.B(lang.Add, lang.V("oi"), lang.N(1))),
			}),
			lang.Set("cksum", lang.B(lang.Add, lang.V("cksum"), lang.V("ocnt"))),
		}
	case Quicksort:
		return quicksortBody(n)
	case Queens:
		return queensBody(n)
	}
	panic("workloads: unknown kind")
}

func quicksortBody(n int) []lang.Stmt {
	fill := []lang.Stmt{
		seedStmt("qv"),
		lang.Set("qi", lang.N(0)),
		lang.Loop(lang.B(lang.Lt, lang.V("qi"), lang.N(int64(n))), []lang.Stmt{
			lang.Set("qv", lcg("qv")),
			lang.Put("qdata", lang.V("qi"), lang.B(lang.And, lang.V("qv"), lang.N(0xFFFF))),
			lang.Set("qi", lang.B(lang.Add, lang.V("qi"), lang.N(1))),
		}),
	}
	partitionLoop := lang.Loop(lang.B(lang.Lt, lang.V("qj"), lang.V("qhi")), []lang.Stmt{
		lang.PublicIf(lang.B(lang.Lt, lang.At("qdata", lang.V("qj")), lang.V("qpiv")),
			[]lang.Stmt{
				lang.Set("qtmp", lang.At("qdata", lang.V("qi"))),
				lang.Put("qdata", lang.V("qi"), lang.At("qdata", lang.V("qj"))),
				lang.Put("qdata", lang.V("qj"), lang.V("qtmp")),
				lang.Set("qi", lang.B(lang.Add, lang.V("qi"), lang.N(1))),
			}, nil),
		lang.Set("qj", lang.B(lang.Add, lang.V("qj"), lang.N(1))),
	})
	sortLoop := lang.Loop(lang.B(lang.Gt, lang.V("qsp"), lang.N(0)), []lang.Stmt{
		lang.Set("qsp", lang.B(lang.Sub, lang.V("qsp"), lang.N(2))),
		lang.Set("qlo", lang.At("qstk", lang.V("qsp"))),
		lang.Set("qhi", lang.At("qstk", lang.B(lang.Add, lang.V("qsp"), lang.N(1)))),
		lang.PublicIf(lang.B(lang.Lt, lang.V("qlo"), lang.V("qhi")), []lang.Stmt{
			lang.Set("qpiv", lang.At("qdata", lang.V("qhi"))),
			lang.Set("qi", lang.V("qlo")),
			lang.Set("qj", lang.V("qlo")),
			partitionLoop,
			// Swap the pivot into place.
			lang.Set("qtmp", lang.At("qdata", lang.V("qi"))),
			lang.Put("qdata", lang.V("qi"), lang.At("qdata", lang.V("qhi"))),
			lang.Put("qdata", lang.V("qhi"), lang.V("qtmp")),
			// Push both halves.
			lang.Put("qstk", lang.V("qsp"), lang.V("qlo")),
			lang.Put("qstk", lang.B(lang.Add, lang.V("qsp"), lang.N(1)),
				lang.B(lang.Sub, lang.V("qi"), lang.N(1))),
			lang.Set("qsp", lang.B(lang.Add, lang.V("qsp"), lang.N(2))),
			lang.Put("qstk", lang.V("qsp"), lang.B(lang.Add, lang.V("qi"), lang.N(1))),
			lang.Put("qstk", lang.B(lang.Add, lang.V("qsp"), lang.N(1)), lang.V("qhi")),
			lang.Set("qsp", lang.B(lang.Add, lang.V("qsp"), lang.N(2))),
		}, nil),
	})
	var stmts []lang.Stmt
	stmts = append(stmts, fill...)
	stmts = append(stmts,
		lang.Put("qstk", lang.N(0), lang.N(0)),
		lang.Put("qstk", lang.N(1), lang.N(int64(n-1))),
		lang.Set("qsp", lang.N(2)),
		sortLoop,
		lang.Set("cksum", lang.B(lang.Add, lang.V("cksum"),
			lang.B(lang.Add, lang.At("qdata", lang.N(int64(n/2))), lang.At("qdata", lang.N(0))))),
	)
	return stmts
}

// queensBody is iterative backtracking N-queens with pruning, counting
// solutions into nsol.
func queensBody(n int) []lang.Stmt {
	nn := int64(n)
	safeCheck := []lang.Stmt{
		lang.Set("nok", lang.N(1)),
		lang.Set("nr", lang.N(0)),
		lang.Loop(lang.B(lang.Lt, lang.V("nr"), lang.V("nrow")), []lang.Stmt{
			lang.Set("ntmp", lang.At("ncol", lang.V("nr"))),
			lang.Set("nd1", lang.B(lang.Sub, lang.V("ntmp"), lang.V("nc"))),
			lang.Set("nd2", lang.B(lang.Sub, lang.V("nrow"), lang.V("nr"))),
			lang.Set("ncf", lang.B(lang.Or,
				lang.B(lang.Eq, lang.V("ntmp"), lang.V("nc")),
				lang.B(lang.Or,
					lang.B(lang.Eq, lang.V("nd1"), lang.V("nd2")),
					lang.B(lang.Eq, lang.V("nd1"), lang.B(lang.Sub, lang.N(0), lang.V("nd2")))))),
			lang.Set("nok", lang.B(lang.And, lang.V("nok"), lang.B(lang.Eq, lang.V("ncf"), lang.N(0)))),
			lang.Set("nr", lang.B(lang.Add, lang.V("nr"), lang.N(1))),
		}),
	}
	columnScan := lang.Loop(
		lang.B(lang.And,
			lang.B(lang.Lt, lang.V("nc"), lang.N(nn)),
			lang.B(lang.Eq, lang.V("nfound"), lang.N(0))),
		append(append([]lang.Stmt{}, safeCheck...),
			lang.PublicIf(lang.V("nok"),
				[]lang.Stmt{lang.Set("nfound", lang.N(1))},
				[]lang.Stmt{lang.Set("nc", lang.B(lang.Add, lang.V("nc"), lang.N(1)))},
			)),
	)
	return []lang.Stmt{
		lang.Set("nsol", lang.N(0)),
		lang.Set("nrow", lang.N(0)),
		lang.Put("ncol", lang.N(0), lang.N(-1)),
		lang.Loop(lang.B(lang.Ge, lang.V("nrow"), lang.N(0)), []lang.Stmt{
			lang.Set("nc", lang.B(lang.Add, lang.At("ncol", lang.V("nrow")), lang.N(1))),
			lang.Set("nfound", lang.N(0)),
			columnScan,
			lang.PublicIf(lang.V("nfound"),
				[]lang.Stmt{
					lang.Put("ncol", lang.V("nrow"), lang.V("nc")),
					lang.PublicIf(lang.B(lang.Eq, lang.V("nrow"), lang.N(nn-1)),
						[]lang.Stmt{lang.Set("nsol", lang.B(lang.Add, lang.V("nsol"), lang.N(1)))},
						[]lang.Stmt{
							lang.Set("nrow", lang.B(lang.Add, lang.V("nrow"), lang.N(1))),
							lang.Put("ncol", lang.V("nrow"), lang.N(-1)),
						}),
				},
				[]lang.Stmt{lang.Set("nrow", lang.B(lang.Sub, lang.V("nrow"), lang.N(1)))},
			),
		}),
		lang.Set("cksum", lang.B(lang.Add, lang.V("cksum"), lang.V("nsol"))),
	}
}
