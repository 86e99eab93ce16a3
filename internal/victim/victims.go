package victim

import "repro/internal/lang"

// The built-in victims. `bit` is the PR-4 victim extracted verbatim from
// the old fused attacker programs; `keyloop` and `modexp` are the
// multi-bit victims the key-extraction sweeps target; `ctcompare` is the
// constant-time negative control.
func init() {
	Register(bitVictim{})
	Register(keyloopVictim{})
	Register(modexpVictim{})
	Register(ctcompareVictim{})
}

// bitSlot names the template patch slot (lang.NS) carrying the attacked bit
// position in the victims whose program text mentions it — the loop bound
// over the earlier bits and the shift of the attacked bit's condition — so
// one compiled template serves every bit of a key (see Victim.KeyInits).
const bitSlot = "bit"

// bitVictim is the direct register-bit victim: the attacked bit is loaded
// straight into the secret scalar `s`, with no surrounding computation.
// It is exactly the secret fragment of the PR-4 fused attacker programs
// (both of them — the two bespoke pairings shared it), so the legacy
// spectre/tvla sweeps build bit-identical programs through it.
type bitVictim struct{}

func (bitVictim) Name() string     { return "bit" }
func (bitVictim) Describe() string { return "direct one-bit secret, no surrounding computation" }
func (bitVictim) Leaky() bool      { return true }

func (bitVictim) Fragment(key uint64, w, bit int) Fragment {
	return Fragment{
		Vars: []*lang.VarDecl{{Name: "s", Init: int64((key >> bit) & 1), Secret: true}},
		Cond: lang.B(lang.And, lang.V("s"), lang.N(1)),
	}
}

func (bitVictim) KeyInits(key uint64, w, bit int, put func(name string, val int64)) {
	put("s", int64((key>>bit)&1))
}

// keyloopVictim models a W-bit key consumed bit-serially: each setup
// iteration branches on one earlier key bit and does asymmetric work on
// its accumulator — the generic shape of a bit-serial crypto loop. The
// attacked bit's condition is the loop's next bit test.
type keyloopVictim struct{}

func (keyloopVictim) Name() string { return "keyloop" }
func (keyloopVictim) Describe() string {
	return "bit-serial W-bit key loop, one secret branch per key bit"
}
func (keyloopVictim) Leaky() bool { return true }

func (keyloopVictim) Fragment(key uint64, w, bit int) Fragment {
	return Fragment{
		Vars: []*lang.VarDecl{
			{Name: "kk", Init: int64(key), Secret: true},
			{Name: "kb"},
			{Name: "kv"},
			{Name: "kacc", Init: 5},
		},
		Setup: []lang.Stmt{
			lang.Loop(lang.B(lang.Lt, lang.V("kb"), lang.NS(bitSlot, int64(bit))), []lang.Stmt{
				lang.Set("kv", lang.B(lang.And, lang.B(lang.Shr, lang.V("kk"), lang.V("kb")), lang.N(1))),
				lang.SecretIf(lang.V("kv"),
					[]lang.Stmt{lang.Set("kacc", lang.B(lang.Add, lang.B(lang.Mul, lang.V("kacc"), lang.N(3)), lang.N(1)))},
					[]lang.Stmt{lang.Set("kacc", lang.B(lang.Add, lang.B(lang.Mul, lang.V("kacc"), lang.N(5)), lang.N(7)))}),
				lang.Set("kb", lang.B(lang.Add, lang.V("kb"), lang.N(1))),
			}),
		},
		Cond: lang.B(lang.And, lang.B(lang.Shr, lang.V("kk"), lang.NS(bitSlot, int64(bit))), lang.N(1)),
	}
}

func (keyloopVictim) KeyInits(key uint64, w, bit int, put func(name string, val int64)) {
	put("kk", int64(key))
	put(bitSlot, int64(bit))
}

// modexpVictim is the paper's Fig. 1 motivating example as an attack
// victim: square-and-multiply modular exponentiation whose multiply step
// is guarded by the secret exponent bit (modeled on examples/rsa-modexp).
// Setup runs the loop over the already-recovered exponent bits — squares
// every bit, multiplies on the set ones — plus the attacked bit's square;
// the attacked condition is that bit's multiply guard.
type modexpVictim struct{}

func (modexpVictim) Name() string { return "modexp" }
func (modexpVictim) Describe() string {
	return "square-and-multiply modexp, multiply guarded by the exponent bit (paper Fig. 1)"
}
func (modexpVictim) Leaky() bool { return true }

func (modexpVictim) Fragment(key uint64, w, bit int) Fragment {
	square := lang.Set("mr", lang.B(lang.Rem, lang.B(lang.Mul, lang.V("mr"), lang.V("mr")), lang.V("mm")))
	return Fragment{
		Vars: []*lang.VarDecl{
			{Name: "me", Init: int64(key), Secret: true},
			{Name: "mr", Init: 1},
			{Name: "mbs", Init: 7},
			{Name: "mm", Init: 1000003},
			{Name: "mi"},
			{Name: "mbit"},
		},
		Setup: []lang.Stmt{
			lang.Loop(lang.B(lang.Lt, lang.V("mi"), lang.NS(bitSlot, int64(bit))), []lang.Stmt{
				square,
				lang.Set("mbit", lang.B(lang.And, lang.B(lang.Shr, lang.V("me"), lang.V("mi")), lang.N(1))),
				lang.SecretIf(lang.V("mbit"),
					[]lang.Stmt{lang.Set("mr", lang.B(lang.Rem, lang.B(lang.Mul, lang.V("mr"), lang.V("mbs")), lang.V("mm")))},
					nil),
				lang.Set("mi", lang.B(lang.Add, lang.V("mi"), lang.N(1))),
			}),
			square, // the attacked bit's own square step
		},
		Cond: lang.B(lang.And, lang.B(lang.Shr, lang.V("me"), lang.NS(bitSlot, int64(bit))), lang.N(1)),
	}
}

func (modexpVictim) KeyInits(key uint64, w, bit int, put func(name string, val int64)) {
	put("me", int64(key))
	put(bitSlot, int64(bit))
}

// ctcompareGuess is the public value the constant-time compare checks the
// key against (masked to the key width).
const ctcompareGuess = 0x5AA55AA5

// ctcompareVictim is the negative control: the constant-time comparison
// idiom from internal/workloads/ct.go (branch-free ct-selects, every bit
// read and combined regardless of value). Its secret never reaches a
// branch or an address, so its Cond is a public constant — the harness
// must report SECURE for it even on the unprotected baseline, which is
// what separates "the attack works" from "the harness sees ghosts".
type ctcompareVictim struct{}

func (ctcompareVictim) Name() string { return "ctcompare" }
func (ctcompareVictim) Describe() string {
	return "constant-time W-bit compare (negative control; expected SECURE everywhere)"
}
func (ctcompareVictim) Leaky() bool { return false }

func (ctcompareVictim) Fragment(key uint64, w, bit int) Fragment {
	guess := int64(ctcompareGuess & ((1 << uint(w)) - 1))
	return Fragment{
		Vars: []*lang.VarDecl{
			{Name: "ck", Init: int64(key), Secret: true},
			{Name: "cg", Init: guess},
			{Name: "cm", Init: 1},
			{Name: "ci"},
			{Name: "cb"},
		},
		Setup: []lang.Stmt{
			// The full-width compare runs whatever bit is under attack: a
			// constant-time victim's work does not depend on the attacker's
			// alignment. Every statement is branch-free (the ct.go mset
			// idiom), so its timing is identical for every key.
			lang.Loop(lang.B(lang.Lt, lang.V("ci"), lang.N(int64(w))), []lang.Stmt{
				lang.Set("cb", lang.B(lang.Xor,
					lang.B(lang.And, lang.B(lang.Shr, lang.V("ck"), lang.V("ci")), lang.N(1)),
					lang.B(lang.And, lang.B(lang.Shr, lang.V("cg"), lang.V("ci")), lang.N(1)))),
				lang.Set("cm", lang.B(lang.And, lang.V("cm"), lang.Sel(lang.V("cb"), lang.N(0), lang.N(1)))),
				lang.Set("ci", lang.B(lang.Add, lang.V("ci"), lang.N(1))),
			}),
		},
		// The compare's outcome is consumed branch-free: what reaches the
		// scaffold's conditional is a public constant, never the secret.
		Cond: lang.B(lang.And, lang.V("cm"), lang.N(0)),
	}
}

func (ctcompareVictim) KeyInits(key uint64, w, bit int, put func(name string, val int64)) {
	put("ck", int64(key))
}
