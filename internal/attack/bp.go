package attack

import (
	"repro/internal/lang"
	"repro/internal/victim"
)

// bpPathLen is the number of dependent ALU operations in each branch path.
// The two paths are instruction-for-instruction symmetric (same opcodes,
// different immediates), so the probe's own execution cost is identical
// whichever path it takes — the only secret-dependent effect left on the
// baseline is the predictor's verdict on the probe branch.
const bpPathLen = 4

// bpGapIters is the trip count of the serializing spin loop between the
// victim iteration and the probe iteration. It solves two races at once:
//
//   - visibility: the predictor trains at commit, but fetch runs ahead —
//     without separation the probe branch is predicted before the victim
//     commits. The spin loop's final iteration mispredicts (its bimodal
//     counter saturates "taken" after two iterations, so the exit is
//     always the surprise), and the resulting flush refetches everything
//     after the loop at exit-resolve time, long after the victim's commit.
//   - clean measurement: the loop body is a short dependent chain, so
//     commit keeps pace with execution and the ROB is nearly empty when
//     the probe window starts — the probe's own flush penalty lands in the
//     measured segment instead of hiding under a commit backlog.
const bpGapIters = 48

// bpGapLines sizes the gap activity's scratch array (in 64-bit words).
const bpGapLines = 8

// bpProgram builds the branch-predictor probe trial around a victim
// fragment: a two-iteration loop around one static conditional branch.
//
//	iteration 0 (victim): the branch condition is the victim's attacked-bit
//	    condition (frag.Cond) — on the unprotected baseline this is the
//	    in-place Spectre-PHT training step, writing the secret into the
//	    TAGE bimodal counter (and, on a mispredict, an allocated tagged
//	    entry) at the branch's PC;
//	iteration 1 (probe): the same static branch runs with the known input
//	    0. Every predictor path now agrees with whatever direction the
//	    victim committed, so the probe mispredicts — and eats the flush —
//	    exactly when the victim's direction differed from the probe's.
//
// The victim's setup statements run once, before the loop: a realistic
// victim computes on the earlier key bits (its own secret branches, at
// their own PCs) before reaching the attacked one. Marker stores bracket
// the branch in both iterations; the iteration-1 segment is the attacker's
// measurement. The condition is selected branch-free (lang.Sel), so the
// probed branch is the only secret-dependent control flow in the measured
// window. Under SeMPE the same source compiles to an sJMP region that
// never consults the predictor, which closes the channel.
//
// With gap > 0, gap units of dummy branch/memory activity run right after
// the victim's window — between training and probe — modeling a weaker
// attacker; see gapLoop.
func bpProgram(frag victim.Fragment, d draw, gapSeed int64, gap int) *lang.Program {
	pathBody := func(mul, add int64) []lang.Stmt {
		out := make([]lang.Stmt, 0, bpPathLen)
		for j := 0; j < bpPathLen; j++ {
			out = append(out, lang.Set("acc",
				lang.B(lang.Add, lang.B(lang.Mul, lang.V("acc"), lang.N(mul)), lang.N(add))))
		}
		return out
	}

	var iter []lang.Stmt
	// c = (i == 0) ? victim's attacked-bit condition : 0, computed
	// branch-free.
	iter = append(iter, lang.Set("c", lang.Sel(lang.B(lang.Eq, lang.V("i"), lang.N(0)),
		frag.Cond, lang.N(0))))
	// Environmental noise outside the measured window: shifts alignment,
	// fetch phase, and global history between trials.
	iter = append(iter, noiseOps(d.noisePre)...)
	// The serializing spin loop (see bpGapIters). It is the LAST thing
	// before the measured window: its exit flush re-fetches the window
	// with an empty pipe, so nothing older is left committing under the
	// window and the probe's own flush penalty stays visible. Anything
	// slow between the spin loop and the start marker (the noise chain,
	// say) would re-create a commit backlog that swallows the signal.
	iter = append(iter, lang.Set("gi", lang.N(bpGapIters)))
	iter = append(iter, lang.Loop(lang.B(lang.Gt, lang.V("gi"), lang.N(0)), []lang.Stmt{
		lang.Set("nv", lang.B(lang.Add, lang.V("nv"), lang.B(lang.Shr, lang.V("nv"), lang.N(3)))),
		// The "- (nv & 0)" couples the trip counter to the noise chain, so
		// the loop's branches — and in particular its exit mispredict —
		// resolve at the slow chain's pace, safely after the older victim
		// branch has committed its predictor update.
		lang.Set("gi", lang.B(lang.Sub, lang.B(lang.Sub, lang.V("gi"), lang.N(1)),
			lang.B(lang.And, lang.V("nv"), lang.N(0)))),
	}))
	// The fork window (forkLo..forkHi): the spin loop's exit flush leaves
	// the window empty here, before the attacked branch is fetched.
	iter = append(iter, lang.Mark(forkLo))
	iter = append(iter, lang.Put(markerArray, lang.N(0), lang.V("i"))) // window start
	iter = append(iter, noiseOps(d.noiseWin)...)                       // in-window jitter
	iter = append(iter, lang.Mark(forkHi))
	iter = append(iter, lang.SecretIf(lang.V("c"), pathBody(3, 1), pathBody(5, 7)))
	iter = append(iter, lang.Put(markerArray, lang.N(0),
		lang.B(lang.Add, lang.V("i"), lang.N(4)))) // window end
	// Attacker-strength gap activity: after the victim's committed
	// training, before the next iteration's spin loop and probe. The trip
	// count is gated branch-free on the iteration counter so the activity
	// runs only between train and probe — a second pass after the probe
	// could affect nothing and would only cost simulation time.
	iter = append(iter, gapLoop(gap,
		lang.Sel(lang.B(lang.Eq, lang.V("i"), lang.N(0)), lang.N(int64(gap)), lang.N(0)),
		"gna", func(x lang.Expr) lang.Expr {
			return lang.B(lang.And, x, lang.N(bpGapLines-1))
		})...)
	iter = append(iter, lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))))

	vars := append([]*lang.VarDecl{}, frag.Vars...)
	vars = append(vars,
		&lang.VarDecl{Name: "i"},
		&lang.VarDecl{Name: "c"},
		&lang.VarDecl{Name: "gi"},
		&lang.VarDecl{Name: "acc", Init: 7},
		&lang.VarDecl{Name: "nv", Init: d.seed0},
	)
	arrays := []*lang.ArrayDecl{{Name: markerArray, Len: 8}}
	if gap > 0 {
		vars = append(vars, gapVars(gapSeed)...)
		arrays = append(arrays, &lang.ArrayDecl{Name: "gna", Len: bpGapLines})
	}
	arrays = append(arrays, frag.Arrays...)

	body := append([]lang.Stmt{}, frag.Setup...)
	body = append(body, lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(2)), iter))

	return &lang.Program{
		Name:   "attack_bp",
		Vars:   vars,
		Arrays: arrays,
		Body:   body,
	}
}
