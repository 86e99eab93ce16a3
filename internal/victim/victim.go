// Package victim defines the secret-parameterised victims the attack lab
// (internal/attack) runs its attackers against. PR 4 fused the victim into
// each attacker program — a hard-coded one-bit secret branch inside the
// Spectre-PHT probe and a one-bit secret-selected load inside the
// prime+probe protocol — which limited the lab to single-bit recovery.
// This package tears the victim out: a Victim builds the secret-dependent
// program fragment in the lang DSL for one attacked bit of a W-bit key,
// and the attacker scaffolds (internal/attack's bp/cache program builders)
// wrap that fragment in their measurement protocol. Any victim composes
// with any attacker, and multi-bit key extraction (attack.ExtractKey)
// walks the key bit by bit, handing each victim the attacker's
// already-recovered prefix — the classic Spectre/modexp extraction loop
// (Kocher et al., "Spectre Attacks"; Chowdhuryy & Yao, "Leaking Secrets
// through Modern Branch Predictors").
//
// The contract between a victim and a scaffold:
//
//   - The fragment's Setup statements run once, before the attacker's
//     protocol starts (before the prime phase, before the probe loop), and
//     may contain their own secret branches — a realistic victim computes
//     on the earlier key bits before reaching the attacked one. Those
//     branches sit at their own static PCs, outside the measured windows.
//   - Cond is the victim's natural condition for the attacked bit: an
//     expression evaluating to 0 or 1 that the victim's secret-dependent
//     action branches on. The scaffold places the branch (or the
//     secret-selected load) at its measured PC and substitutes a known
//     input on probe re-executions. A constant-time victim returns a
//     public Cond — its secret never reaches any branch — which is what
//     makes it a negative control.
//   - Victims must not declare the scaffold's reserved names (see
//     ReservedNames); lang.Program.Validate rejects collisions loudly at
//     trial-build time.
//
// The measured branch's two path bodies belong to the scaffold, not the
// victim, and are instruction-for-instruction symmetric: the lab isolates
// the predictor/cache direction channel, and path-length asymmetry (SeMPE's
// other channel) is covered by the leakmatrix scenario.
package victim

import (
	"fmt"
	"sort"

	"repro/internal/lang"
)

// MaxWidth bounds the key width. Scalar initializers lower to a single
// OpLi whose immediate is a sign-extended 32 bits, so keys up to 31 bits
// keep the program layout independent of the key value (and a uint64 key
// below 2^31 survives a JSON number round trip exactly).
const MaxWidth = 31

// Fragment is a victim's contribution to one attack trial: declarations,
// setup statements, and the attacked bit's condition expression.
type Fragment struct {
	// Vars declares the victim's scalars, the secret key among them. They
	// are allocated before the scaffold's own scalars.
	Vars []*lang.VarDecl
	// Arrays declares the victim's data arrays. They are placed after the
	// scaffold's arrays, so they can never disturb the attacker's cache-set
	// layout (the marker line, the prime+probe conflict regions).
	Arrays []*lang.ArrayDecl
	// Setup runs once, before the attacker's protocol.
	Setup []lang.Stmt
	// Cond evaluates to bit `bit` of the key — or to a public value, for a
	// constant-time victim whose secret never reaches a branch.
	Cond lang.Expr
}

// Victim builds the secret-dependent fragment of an attack trial.
type Victim interface {
	// Name is the registry key ("keyloop", "modexp", ...).
	Name() string
	// Describe is the one-line description shown by -list style output.
	Describe() string
	// Leaky reports whether the victim's secret-dependent behavior is
	// observable at all: false for constant-time negative controls, whose
	// expected verdict is SECURE even on the unprotected baseline.
	Leaky() bool
	// Fragment builds the victim's fragment for attacking bit `bit`
	// (0-based, LSB first) of the w-bit key. Callers guarantee
	// 0 <= bit < w <= MaxWidth and key < 1<<w.
	Fragment(key uint64, w, bit int) Fragment
	// KeyInits is the contract behind the attack lab's compile-memoization
	// fast path. At a fixed width w the victim's Fragment must be
	// STRUCTURALLY identical for every key and every bit — same
	// declarations in the same order, same statements, same condition —
	// with the key and the attacked bit reaching the program only through
	// the Init values of the scalars and the named literal slots (lang.NS)
	// reported here. KeyInits reports those (name, value) pairs for a given
	// (key, bit) via put; every scalar or literal it does not report is
	// independent of both. The attack drivers compile one template per
	// (victim, w, ...) shape and patch only these slots per trial; the
	// patched-vs-fresh byte-equality test in internal/attack, which patches
	// a template built at one bit to every other bit, catches a victim that
	// breaks the contract.
	KeyInits(key uint64, w, bit int, put func(name string, val int64))
}

// ReservedNames are the scaffold-owned declaration names a victim fragment
// must avoid. The list is shared with internal/attack's program builders;
// a collision fails lang validation when the trial program is built.
func ReservedNames() []string {
	return []string{
		"i", "c", "gi", "acc", "nv", "vv", "p1", "p2", // measurement scaffolds
		"gv", "gj", "gl", "ga", // gap-noise activity
		"mrk", "parr", "gna", // marker, conflict, and gap arrays
	}
}

var registry = map[string]Victim{}

// Register adds a victim to the registry; duplicate names and fragments
// that declare reserved names panic at init time, when the mistake is a
// code bug rather than user input.
func Register(v Victim) {
	if _, dup := registry[v.Name()]; dup {
		panic(fmt.Sprintf("victim: duplicate registration %q", v.Name()))
	}
	reserved := map[string]bool{}
	for _, n := range ReservedNames() {
		reserved[n] = true
	}
	f := v.Fragment((1<<4)-1, 4, 2) // a representative fragment
	for _, d := range f.Vars {
		if reserved[d.Name] {
			panic(fmt.Sprintf("victim %q declares reserved name %q", v.Name(), d.Name))
		}
	}
	for _, a := range f.Arrays {
		if reserved[a.Name] {
			panic(fmt.Sprintf("victim %q declares reserved array %q", v.Name(), a.Name))
		}
	}
	registry[v.Name()] = v
}

// Lookup resolves a victim by name.
func Lookup(name string) (Victim, error) {
	v, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("victim: unknown victim %q (have %v)", name, Names())
	}
	return v, nil
}

// Names lists the registered victims, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered victim in Names order.
func All() []Victim {
	var out []Victim
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
