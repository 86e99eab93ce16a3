package attack

import (
	"repro/internal/lang"
	"repro/internal/victim"
)

// The prime+probe array is three DL1-sized regions of 256 lines each.
// Element R_k[i] = parr[k*cacheRegionElems + 8*i] lives exactly 256 cache
// lines after R_{k-1}[i], so all three map to the same DL1 set (the DL1 is
// 32 KiB, 2-way, 64-byte lines: 256 sets): R0/R1 are the attacker's two
// priming ways and R2 is the victim's conflicting line.
const (
	cacheRegionLines = 256
	cacheRegionElems = cacheRegionLines * 8 // 8 words per 64-byte line
)

// cacheIdxNames are the named template patch slots carrying the probed-set
// element offsets: plaR/plbR is the draw's set-A/set-B element offset in
// region R. Keeping the offsets in patch slots (rewritten per trial by the
// runner) instead of plain literals makes the program shape draw-independent,
// so every prime+probe trial of a batch shares one compiled template — while
// the emitted code stays byte-for-byte what the plain-literal program
// produced, since a slotted literal lowers to the same load-immediate.
var cacheIdxNames = [...]string{"pla0", "pla1", "pla2", "plb0", "plb1", "plb2"}

// cacheIdxVals returns the values for cacheIdxNames given a draw's probed
// lines, in matching order.
func cacheIdxVals(la, lb int) [6]int64 {
	la8, lb8 := int64(8*la), int64(8*lb)
	return [6]int64{
		la8, cacheRegionElems + la8, 2*cacheRegionElems + la8,
		lb8, cacheRegionElems + lb8, 2*cacheRegionElems + lb8,
	}
}

// cacheProgram builds the prime+probe trial around a victim fragment's
// secret-selected load.
//
//	setup:  the victim's own computation on the earlier key bits, before
//	        the attacker's protocol starts.
//	prime:  load R0[la], R1[la], R0[lb], R1[lb] — both ways of the two
//	        probed sets are attacker lines, R0 older (LRU victim).
//	victim: if (cond) load R2[la] else load R2[lb], where cond is the
//	        victim's attacked-bit condition — on the baseline exactly one
//	        path executes, evicting R0 from exactly one set.
//	probe:  reload R0[la] and R0[lb], each bracketed by a marker store;
//	        the evicted one misses (>= L2 latency), the other hits.
//
// Each probe load's address carries a dummy data dependency on the
// previous load's value ("& 0"), which serializes the probe chain behind
// the victim so the miss latency lands inside the measured windows instead
// of hiding under earlier out-of-order work. Under SeMPE both victim paths
// execute regardless of the secret, so both probed sets are evicted and
// the per-set probe difference carries no information.
//
// With gap > 0, gap units of dummy branch/memory activity run between the
// victim's load and the probe — their loads fall in the probed-set pool,
// so an unlucky (and uncalibratable) gap load can evict a primed line and
// corrupt the probe; see gapLoop.
//
// The probed element offsets (8*la and 8*lb plus their region bases) are
// named patch slots (lang.NS, cacheIdxNames), so the program's SHAPE is
// independent of the probed-set draw: every prime+probe trial of a batch
// patches the same compile.Template instead of recompiling per (la, lb)
// pair. The slot names only mark the load-immediates for patching — the
// compiled trial is byte-identical to the plain-literal program.
func cacheProgram(frag victim.Fragment, d draw, gapSeed int64, gap int) *lang.Program {
	idx := cacheIdxVals(d.la, d.lb)
	slot := func(i int) lang.Expr { return lang.NS(cacheIdxNames[i], idx[i]) }
	// dep adds a dummy dependency on the accumulator so the out-of-order
	// backend cannot reorder the prime/victim/probe protocol: each access
	// address waits for the previous access's value.
	dep := func(idx lang.Expr, on string) lang.Expr {
		return lang.B(lang.Add, idx, lang.B(lang.And, lang.V(on), lang.N(0)))
	}
	prime := func(idx lang.Expr) lang.Stmt {
		return lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.At("parr", dep(idx, "acc"))))
	}

	body := append([]lang.Stmt{}, frag.Setup...)
	body = append(body,
		prime(slot(0)), // R0[la]
		prime(slot(1)), // R1[la]
		prime(slot(3)), // R0[lb]
		prime(slot(4)), // R1[lb]
	)
	// The fork window (forkLo..forkHi): the primed loads drain somewhere in
	// the noise chain, before the victim's access is fetched.
	body = append(body, lang.Mark(forkLo))
	body = append(body, noiseOps(d.noisePre)...)
	body = append(body, lang.Set("vv", lang.N(0)))
	body = append(body, lang.Mark(forkHi))
	body = append(body, lang.SecretIf(frag.Cond,
		[]lang.Stmt{lang.Set("vv", lang.At("parr", dep(slot(2), "acc")))}, // R2[la]
		[]lang.Stmt{lang.Set("vv", lang.At("parr", dep(slot(5), "acc")))}, // R2[lb]
	))
	// Attacker-strength gap activity between the victim's access and the
	// probe: its loads land in the probed-set pool of region 2.
	body = append(body, gapLoop(gap, lang.N(int64(gap)), "parr", func(x lang.Expr) lang.Expr {
		return lang.B(lang.Add, lang.N(2*cacheRegionElems+8*cacheProbeMin),
			lang.B(lang.Mul, lang.N(8), lang.B(lang.Rem, x, lang.N(cacheProbePool))))
	})...)
	body = append(body, lang.Put(markerArray, lang.N(0), lang.N(1))) // probe start
	body = append(body, noiseOps(d.noiseWin)...)
	body = append(body, lang.Set("p1", lang.At("parr", dep(slot(0), "vv"))))
	body = append(body, lang.Put(markerArray, lang.N(0), lang.N(2))) // after set-A reload
	body = append(body, noiseOps(d.noiseWin)...)
	body = append(body, lang.Set("p2", lang.At("parr", dep(slot(3), "p1"))))
	body = append(body, lang.Put(markerArray, lang.N(0), lang.N(3))) // after set-B reload
	body = append(body, lang.Set("acc", lang.B(lang.Add, lang.V("acc"), lang.V("p2"))))

	vars := append([]*lang.VarDecl{}, frag.Vars...)
	vars = append(vars,
		&lang.VarDecl{Name: "acc", Init: 1},
		&lang.VarDecl{Name: "nv", Init: d.seed0},
		&lang.VarDecl{Name: "vv"},
		&lang.VarDecl{Name: "p1"},
		&lang.VarDecl{Name: "p2"},
	)
	if gap > 0 {
		vars = append(vars, gapVars(gapSeed)...)
	}

	// The marker array is declared first so it owns the data segment's
	// first line; parr starts one line later, and the probed line pool
	// [cacheProbeMin, cacheProbeMin+cacheProbePool) keeps every probed
	// set clear of the marker's set and of the result block (whose
	// lines alias parr's first lines: the array spans exactly 3*256
	// lines, a multiple of the DL1 set count). Victim arrays, if any,
	// come after parr, so they cannot disturb this layout.
	arrays := []*lang.ArrayDecl{
		{Name: markerArray, Len: 8},
		{Name: "parr", Len: 3 * cacheRegionElems},
	}
	arrays = append(arrays, frag.Arrays...)

	return &lang.Program{
		Name:   "attack_cache",
		Vars:   vars,
		Arrays: arrays,
		Body:   body,
	}
}
