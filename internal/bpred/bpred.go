package bpred

// Unit bundles the front-end prediction structures the core consults:
// TAGE for conditional directions, ITTAGE for indirect targets, and a
// return-address stack. Secure branches (sJMP) must never call into this
// unit — the SeMPE rule that eliminates the branch-predictor side channel.
type Unit struct {
	TAGE   *TAGE
	ITTAGE *ITTAGE
	ras    []uint64
	rasTop int // number of live entries

	// Lookups counts consultations of the prediction structures. Lookup
	// counts accumulate at fetch time and therefore include wrong-path
	// activity (a mispredicted path keeps predicting until the flush);
	// Updates accumulate at commit and count only architectural training.
	// The spec-window observability layer (internal/pipeline/spec.go)
	// surfaces the difference. Pure accounting: never part of Digest.
	Lookups LookupStats
}

// LookupStats is the predictor-consultation accounting on a Unit.
type LookupStats struct {
	Branch   uint64 // conditional-direction predictions (TAGE)
	Indirect uint64 // indirect-target predictions (ITTAGE)
	RASPush  uint64 // return-address pushes at fetch
	RASPop   uint64 // return-address pops at fetch
	Updates  uint64 // commit-time trainings (direction + indirect)
}

// RASDepth is the return-address-stack capacity.
const RASDepth = 32

// NewUnit builds a predictor unit with the default Table II budgets.
func NewUnit() *Unit {
	return &Unit{
		TAGE:   NewTAGE(DefaultTAGEConfig()),
		ITTAGE: NewITTAGE(DefaultITTAGEConfig()),
		ras:    make([]uint64, RASDepth),
	}
}

// PredictBranch returns the predicted direction for a conditional branch.
func (u *Unit) PredictBranch(pc uint64) bool {
	u.Lookups.Branch++
	return u.TAGE.Predict(pc)
}

// UpdateBranch trains the direction predictor at commit.
func (u *Unit) UpdateBranch(pc uint64, taken bool) {
	u.Lookups.Updates++
	u.TAGE.Update(pc, taken)
}

// PredictIndirect returns a predicted target for a JALR at pc.
func (u *Unit) PredictIndirect(pc uint64) (uint64, bool) {
	u.Lookups.Indirect++
	return u.ITTAGE.Predict(pc)
}

// UpdateIndirect trains the target predictor at commit.
func (u *Unit) UpdateIndirect(pc, target uint64) {
	u.Lookups.Updates++
	u.ITTAGE.Update(pc, target)
}

// PushReturn records a return address at fetch time (JAL/JALR that links).
func (u *Unit) PushReturn(addr uint64) {
	u.Lookups.RASPush++
	if u.rasTop < len(u.ras) {
		u.ras[u.rasTop] = addr
		u.rasTop++
		return
	}
	// Overflow: overwrite the oldest by shifting (rare; depth 32).
	copy(u.ras, u.ras[1:])
	u.ras[len(u.ras)-1] = addr
}

// PopReturn predicts the target of a return (JALR through the link
// register), or reports no prediction when the stack is empty.
func (u *Unit) PopReturn() (uint64, bool) {
	u.Lookups.RASPop++
	if u.rasTop == 0 {
		return 0, false
	}
	u.rasTop--
	return u.ras[u.rasTop], true
}

// Reset restores the whole unit to fresh-construction state without
// reallocating. The RAS contents above rasTop are never read (Push
// overwrites, Pop reads below the top, Digest mixes only live entries), so
// resetting the top pointer suffices.
func (u *Unit) Reset() {
	u.TAGE.Reset()
	u.ITTAGE.Reset()
	u.rasTop = 0
	u.Lookups = LookupStats{}
}

// CopyFrom makes the unit's prediction state and accounting equal to src's.
// Both units must have the same geometry.
func (u *Unit) CopyFrom(src *Unit) {
	u.TAGE.CopyFrom(src.TAGE)
	u.ITTAGE.CopyFrom(src.ITTAGE)
	copy(u.ras, src.ras[:src.rasTop])
	u.rasTop = src.rasTop
	u.Lookups = src.Lookups
}

// Digest fingerprints every predictor structure. Under SeMPE the digest
// after a run must not depend on any secret.
func (u *Unit) Digest() uint64 {
	h := newFNV()
	h.mix(u.TAGE.Digest())
	h.mix(u.ITTAGE.Digest())
	h.mix(uint64(u.rasTop))
	for i := 0; i < u.rasTop; i++ {
		h.mix(u.ras[i])
	}
	return h.sum
}
