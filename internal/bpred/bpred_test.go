package bpred

import (
	"math/rand"
	"testing"
)

func TestTAGELearnsBias(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	pc := uint64(0x4000)
	for i := 0; i < 200; i++ {
		tg.Update(pc, true)
	}
	if !tg.Predict(pc) {
		t.Error("always-taken branch predicted not-taken after training")
	}
	if rate := tg.MispredictRate(); rate > 0.1 {
		t.Errorf("mispredict rate %.2f on a constant branch", rate)
	}
}

func TestTAGELearnsAlternation(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	pc := uint64(0x4100)
	// T,N,T,N... requires one history bit: tagged tables must pick it up.
	for i := 0; i < 2000; i++ {
		tg.Update(pc, i%2 == 0)
	}
	// Measure on the last 200.
	before := tg.Mispredict
	for i := 2000; i < 2200; i++ {
		tg.Update(pc, i%2 == 0)
	}
	miss := tg.Mispredict - before
	if miss > 20 {
		t.Errorf("%d/200 mispredicts on an alternating branch; TAGE should learn it", miss)
	}
}

func TestTAGELearnsLoopExit(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	pc := uint64(0x4200)
	// A loop of period 9: taken 8 times, then not taken.
	for rounds := 0; rounds < 400; rounds++ {
		for i := 0; i < 8; i++ {
			tg.Update(pc, true)
		}
		tg.Update(pc, false)
	}
	before := tg.Mispredict
	total := uint64(0)
	for rounds := 0; rounds < 40; rounds++ {
		for i := 0; i < 8; i++ {
			tg.Update(pc, true)
			total++
		}
		tg.Update(pc, false)
		total++
	}
	miss := tg.Mispredict - before
	if float64(miss)/float64(total) > 0.15 {
		t.Errorf("%d/%d mispredicts on a periodic loop branch", miss, total)
	}
}

func TestTAGEBeatsBimodalOnHistory(t *testing.T) {
	// A pattern that defeats a bimodal counter (unbiased) but is perfectly
	// history-predictable: outcome = previous outcome of another branch.
	tg := NewTAGE(DefaultTAGEConfig())
	rng := rand.New(rand.NewSource(5))
	var last bool
	// Train.
	for i := 0; i < 6000; i++ {
		lead := rng.Intn(2) == 0
		tg.Update(0x5000, lead)
		tg.Update(0x5100, last)
		last = lead
	}
	before := tg.Mispredict
	count := uint64(0)
	for i := 0; i < 500; i++ {
		lead := rng.Intn(2) == 0
		tg.Update(0x5000, lead)
		count++
		tg.Update(0x5100, last)
		count++
		last = lead
	}
	missRate := float64(tg.Mispredict-before) / float64(count)
	// The correlated branch is fully predictable; the lead branch is a coin
	// flip, so the floor is ~25% overall. Bimodal alone would sit near 50%.
	if missRate > 0.40 {
		t.Errorf("correlated-pattern miss rate %.2f, want < 0.40", missRate)
	}
}

func TestTAGEDigestTracksState(t *testing.T) {
	a := NewTAGE(DefaultTAGEConfig())
	b := NewTAGE(DefaultTAGEConfig())
	if a.Digest() != b.Digest() {
		t.Error("fresh predictors digest differently")
	}
	a.Update(0x100, true)
	if a.Digest() == b.Digest() {
		t.Error("update not reflected in digest")
	}
	b.Update(0x100, true)
	if a.Digest() != b.Digest() {
		t.Error("same update sequence, different digests")
	}
}

func TestITTAGELearnsTargets(t *testing.T) {
	it := NewITTAGE(DefaultITTAGEConfig())
	pc := uint64(0x6000)
	for i := 0; i < 50; i++ {
		it.Update(pc, 0xBEEF)
	}
	if tgt, ok := it.Predict(pc); !ok || tgt != 0xBEEF {
		t.Errorf("Predict = %#x,%v want 0xBEEF", tgt, ok)
	}
	// Target changes: the predictor must eventually follow.
	for i := 0; i < 50; i++ {
		it.Update(pc, 0xCAFE)
	}
	if tgt, _ := it.Predict(pc); tgt != 0xCAFE {
		t.Errorf("after retraining Predict = %#x want 0xCAFE", tgt)
	}
}

func TestITTAGEHistoryCorrelatedTargets(t *testing.T) {
	// An indirect branch alternating between two targets in lockstep with a
	// conditional's history: tagged components should help.
	it := NewITTAGE(DefaultITTAGEConfig())
	for i := 0; i < 4000; i++ {
		it.Update(0x7000, uint64(0x100+(i%2)*0x100))
	}
	before := it.Mispredict
	for i := 4000; i < 4400; i++ {
		it.Update(0x7000, uint64(0x100+(i%2)*0x100))
	}
	miss := it.Mispredict - before
	if miss > 100 {
		t.Errorf("%d/400 target mispredicts on an alternating indirect", miss)
	}
}

func TestRAS(t *testing.T) {
	u := NewUnit()
	u.PushReturn(0x100)
	u.PushReturn(0x200)
	if tgt, ok := u.PopReturn(); !ok || tgt != 0x200 {
		t.Errorf("pop = %#x,%v want 0x200", tgt, ok)
	}
	if tgt, ok := u.PopReturn(); !ok || tgt != 0x100 {
		t.Errorf("pop = %#x,%v want 0x100", tgt, ok)
	}
	if _, ok := u.PopReturn(); ok {
		t.Error("pop on empty RAS succeeded")
	}
	// Overflow keeps the newest entries.
	for i := 0; i < RASDepth+5; i++ {
		u.PushReturn(uint64(i))
	}
	if tgt, ok := u.PopReturn(); !ok || tgt != uint64(RASDepth+4) {
		t.Errorf("post-overflow pop = %d want %d", tgt, RASDepth+4)
	}
}

func TestUnitDigestCoversAllStructures(t *testing.T) {
	a, b := NewUnit(), NewUnit()
	if a.Digest() != b.Digest() {
		t.Error("fresh units differ")
	}
	a.PushReturn(1)
	if a.Digest() == b.Digest() {
		t.Error("RAS state not in digest")
	}
	b.PushReturn(1)
	a.UpdateIndirect(0x10, 0x20)
	if a.Digest() == b.Digest() {
		t.Error("ITTAGE state not in digest")
	}
}

func TestFoldedHistoryWindow(t *testing.T) {
	// Folding must be invertible over a window: pushing N bits and then the
	// exact same N bits again returns the fold to a consistent state
	// whenever the window length divides the sequence length.
	tg := NewTAGE(TAGEConfig{BaseBits: 8, TableBits: 7, TagBits: 8, HistLens: []int{8}})
	seq := []bool{true, false, true, true, false, false, true, false}
	// Fill the window.
	for _, b := range seq {
		tg.pushHistory(b)
	}
	v1 := tg.tables[0].idxFold.value
	// Push the identical window again: the folded image of the last 8 bits
	// is the same.
	for _, b := range seq {
		tg.pushHistory(b)
	}
	v2 := tg.tables[0].idxFold.value
	if v1 != v2 {
		t.Errorf("folded history not window-consistent: %#x vs %#x", v1, v2)
	}
}

// trainUnit drives u with n random conditional branches, indirect jumps
// and calls from a small PC pool.
func trainUnit(u *Unit, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + 8*rng.Intn(64))
		switch rng.Intn(8) {
		case 0:
			u.PushReturn(pc + 8)
		case 1:
			u.PopReturn()
		case 2:
			u.PredictIndirect(pc)
			u.UpdateIndirect(pc, uint64(0x4000+8*rng.Intn(4)))
		default:
			u.PredictBranch(pc)
			u.UpdateBranch(pc, rng.Intn(3) > 0)
		}
	}
}

// TestUnitCopyAndResetTrackWrites: Reset and CopyFrom visit only the TAGE
// slots a run wrote. A unit copied from a trained source, whatever it held
// before, must digest and predict like the source from then on, and a reset
// one like a new unit; both before and after the periodic useful-bit reset
// has aged the tables.
func TestUnitCopyAndResetTrackWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fresh := NewUnit().Digest()
	for _, n := range []int{0, 50, 3000} {
		src, dst := NewUnit(), NewUnit()
		trainUnit(src, rng, n)
		trainUnit(dst, rng, 2000) // slots only dst wrote must revert
		dst.CopyFrom(src)
		if dst.Digest() != src.Digest() {
			t.Fatalf("after %d updates: the copy digests differently from its source", n)
		}
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		trainUnit(src, a, 500)
		trainUnit(dst, b, 500)
		if dst.Digest() != src.Digest() || dst.TAGE.Mispredict != src.TAGE.Mispredict {
			t.Fatalf("after %d updates: the copy and its source diverged on the same stream", n)
		}
		dst.Reset()
		if dst.Digest() != fresh {
			t.Fatalf("after %d updates: a reset copy digests differently from a new unit", n)
		}
	}
	// Drive the periodic useful-bit reset (every 1<<18 failed allocations):
	// make every candidate entry of one pc useful so its allocation fails,
	// with the tick one short of the period.
	src, dst := NewUnit(), NewUnit()
	trainUnit(src, rng, 3000)
	tg := src.TAGE
	pc := uint64(0x1234)
	for i := range tg.tables {
		idx := tg.tables[i].index(pc)
		tg.mark(tg.entrySlot(i, idx))
		tg.tables[i].entries[idx] = tageEntry{tag: 1, use: 3, live: true}
	}
	tg.uTick = 1<<18 - 1
	tg.allocate(pc, true, -1)
	if tg.uTick != 1<<18 {
		t.Fatal("the allocation did not fail; the periodic reset did not run")
	}
	dst.CopyFrom(src)
	if dst.Digest() != src.Digest() {
		t.Fatal("after the periodic reset: the copy digests differently")
	}
	dst.Reset()
	if dst.Digest() != fresh {
		t.Fatal("after the periodic reset: a reset unit digests differently from a new one")
	}
}
