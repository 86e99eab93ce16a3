// Package bpred implements the branch predictors of the paper's Table II: a
// TAGE conditional-branch predictor (~31 KB), an ITTAGE indirect-target
// predictor (~6 KB), and a return-address stack. History is updated
// non-speculatively at commit, which keeps the model deterministic and —
// crucially for SeMPE — lets the leak checker digest predictor state after a
// run: sJMP instructions never touch the predictor, so under SeMPE the
// digest is independent of the secret.
package bpred

// TAGE is a TAgged GEometric-history-length predictor: a bimodal base table
// plus tagged components indexed with geometrically increasing history
// lengths. Prediction comes from the longest-history matching component;
// allocation on a misprediction claims an entry in a longer table.
type TAGE struct {
	base      []int8 // bimodal 2-bit counters
	baseMask  uint64
	tables    []tageTable
	hist      history
	useAltCtr int8 // bias toward altpred for newly allocated entries

	// Stats
	Lookups    uint64
	Mispredict uint64
	allocs     uint64
	uTick      uint64

	// Written-slot tracking. A slot numbers a base counter (its index) or a
	// tagged entry (len(base) + table*entries per table + index). Every slot
	// not listed in written still holds its fresh zero value, so Reset and
	// CopyFrom visit only the written slots instead of all ~90 KB of tables;
	// an attack-trial run writes a few hundred. Update marks a slot before
	// writing it; aging and the periodic useful-bit reset only decrement
	// useful bits that are nonzero, which only a written slot can have.
	written    []uint32
	writtenBit []uint64 // bit per slot, set while the slot is in written
}

type tageTable struct {
	entries  []tageEntry
	mask     uint64
	histLen  int
	tagBits  uint
	idxFold  folded
	tagFold1 folded
	tagFold2 folded
}

type tageEntry struct {
	tag  uint16
	ctr  int8 // 3-bit signed: -4..3; >=0 predicts taken
	use  uint8
	live bool
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseBits  int   // log2 of bimodal entries
	TableBits int   // log2 of entries per tagged table
	TagBits   uint  // tag width
	HistLens  []int // geometric history lengths, shortest first
}

// DefaultTAGEConfig approximates the paper's 31 KB budget: a 16K-entry
// bimodal base (4 KB) and six 2K-entry tagged tables at 2 bytes per entry
// (24 KB), plus folded-history registers.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:  14,
		TableBits: 11,
		TagBits:   11,
		HistLens:  []int{5, 11, 22, 44, 88, 176},
	}
}

// NewTAGE builds a predictor.
func NewTAGE(cfg TAGEConfig) *TAGE {
	t := &TAGE{
		base:     make([]int8, 1<<cfg.BaseBits),
		baseMask: 1<<cfg.BaseBits - 1,
	}
	maxLen := 0
	for _, hl := range cfg.HistLens {
		if hl > maxLen {
			maxLen = hl
		}
	}
	t.hist.init(maxLen)
	for _, hl := range cfg.HistLens {
		tbl := tageTable{
			entries: make([]tageEntry, 1<<cfg.TableBits),
			mask:    1<<cfg.TableBits - 1,
			histLen: hl,
			tagBits: cfg.TagBits,
		}
		tbl.idxFold.init(hl, uint(cfg.TableBits))
		tbl.tagFold1.init(hl, cfg.TagBits)
		tbl.tagFold2.init(hl, cfg.TagBits-1)
		t.tables = append(t.tables, tbl)
	}
	t.writtenBit = make([]uint64, (len(t.base)+len(cfg.HistLens)<<cfg.TableBits+63)/64)
	return t
}

// mark records that slot is about to be written.
func (t *TAGE) mark(slot uint32) {
	if w := &t.writtenBit[slot>>6]; *w&(1<<(slot&63)) == 0 {
		*w |= 1 << (slot & 63)
		t.written = append(t.written, slot)
	}
}

// entrySlot is the slot of entry idx of tagged table i.
func (t *TAGE) entrySlot(i int, idx uint64) uint32 {
	return uint32(len(t.base) + i*len(t.tables[i].entries) + int(idx))
}

// zeroSlot returns slot to its fresh value.
func (t *TAGE) zeroSlot(slot uint32) {
	if s := int(slot); s < len(t.base) {
		t.base[s] = 0
	} else {
		s -= len(t.base)
		n := len(t.tables[0].entries)
		t.tables[s/n].entries[s%n] = tageEntry{}
	}
}

// copySlot sets slot to src's value of it.
func (t *TAGE) copySlot(src *TAGE, slot uint32) {
	if s := int(slot); s < len(t.base) {
		t.base[s] = src.base[s]
	} else {
		s -= len(t.base)
		n := len(t.tables[0].entries)
		t.tables[s/n].entries[s%n] = src.tables[s/n].entries[s%n]
	}
}

func (tb *tageTable) index(pc uint64) uint64 {
	h := uint64(tb.idxFold.value)
	return (pc ^ (pc >> 5) ^ h) & tb.mask
}

func (tb *tageTable) tag(pc uint64) uint16 {
	t := pc ^ uint64(tb.tagFold1.value) ^ (uint64(tb.tagFold2.value) << 1)
	return uint16(t & (1<<tb.tagBits - 1))
}

// Predict returns the predicted direction for the branch at pc.
func (t *TAGE) Predict(pc uint64) bool {
	taken, _, _ := t.predictInternal(pc)
	return taken
}

// predictInternal returns (prediction, provider table index or -1, altpred).
func (t *TAGE) predictInternal(pc uint64) (bool, int, bool) {
	provider := -1
	alt := -1
	for i := len(t.tables) - 1; i >= 0; i-- {
		tb := &t.tables[i]
		e := &tb.entries[tb.index(pc)]
		if e.live && e.tag == tb.tag(pc) {
			if provider < 0 {
				provider = i
			} else {
				alt = i
				break
			}
		}
	}
	basePred := t.base[pc&t.baseMask] >= 0
	altPred := basePred
	if alt >= 0 {
		tb := &t.tables[alt]
		altPred = tb.entries[tb.index(pc)].ctr >= 0
	}
	if provider < 0 {
		return basePred, -1, basePred
	}
	tb := &t.tables[provider]
	e := &tb.entries[tb.index(pc)]
	pred := e.ctr >= 0
	// Newly allocated, weak entries defer to altpred when the use-alt
	// counter says they are unreliable.
	if t.useAltCtr >= 0 && e.use == 0 && (e.ctr == 0 || e.ctr == -1) {
		return altPred, provider, altPred
	}
	return pred, provider, altPred
}

// Update trains the predictor with the committed outcome of the branch at
// pc. It must be called exactly once per committed conditional branch, in
// program order.
func (t *TAGE) Update(pc uint64, taken bool) {
	t.Lookups++
	pred, provider, altPred := t.predictInternal(pc)
	if pred != taken {
		t.Mispredict++
	}

	if provider >= 0 {
		tb := &t.tables[provider]
		idx := tb.index(pc)
		t.mark(t.entrySlot(provider, idx))
		e := &tb.entries[idx]
		// Useful bit: provider disagreed with altpred and was right/wrong.
		if pred != altPred {
			if pred == taken {
				if e.use < 3 {
					e.use++
				}
			} else if e.use > 0 {
				e.use--
			}
		}
		e.ctr = satUpdate(e.ctr, taken, -4, 3)
		if e.use == 0 && (e.ctr == 0 || e.ctr == -1) {
			if altPred == taken {
				t.useAltCtr = satUpdate(t.useAltCtr, true, -8, 7)
			} else {
				t.useAltCtr = satUpdate(t.useAltCtr, false, -8, 7)
			}
		}
	} else {
		i := pc & t.baseMask
		t.mark(uint32(i))
		t.base[i] = satUpdate(t.base[i], taken, -2, 1)
	}

	// Allocate a longer-history entry on a misprediction.
	if pred != taken && provider < len(t.tables)-1 {
		t.allocate(pc, taken, provider)
	}

	// Finally, push the outcome into the global history.
	t.pushHistory(taken)
}

func (t *TAGE) allocate(pc uint64, taken bool, provider int) {
	start := provider + 1
	// Find a table with a dead or non-useful entry; prefer the shortest.
	for i := start; i < len(t.tables); i++ {
		tb := &t.tables[i]
		idx := tb.index(pc)
		e := &tb.entries[idx]
		if !e.live || e.use == 0 {
			t.mark(t.entrySlot(i, idx))
			e.live = true
			e.tag = tb.tag(pc)
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			e.use = 0
			t.allocs++
			return
		}
	}
	// All candidates useful: age them so future allocations succeed.
	for i := start; i < len(t.tables); i++ {
		tb := &t.tables[i]
		e := &tb.entries[tb.index(pc)]
		if e.use > 0 {
			e.use--
		}
	}
	// Periodic graceful reset of useful counters.
	t.uTick++
	if t.uTick%(1<<18) == 0 {
		for i := range t.tables {
			for j := range t.tables[i].entries {
				if t.tables[i].entries[j].use > 0 {
					t.tables[i].entries[j].use--
				}
			}
		}
	}
}

func (t *TAGE) pushHistory(taken bool) {
	bit := uint8(0)
	if taken {
		bit = 1
	}
	old := t.hist.push(bit)
	for i := range t.tables {
		tb := &t.tables[i]
		out := old.at(tb.histLen)
		tb.idxFold.update(bit, out, tb.histLen)
		tb.tagFold1.update(bit, out, tb.histLen)
		tb.tagFold2.update(bit, out, tb.histLen)
	}
}

// Reset restores the predictor to its fresh-construction state without
// reallocating: tables, history, folded registers and statistics all return
// to the values NewTAGE left them with, so a reset predictor is
// indistinguishable (per Digest and per prediction stream) from a new one.
func (t *TAGE) Reset() {
	for _, s := range t.written {
		t.zeroSlot(s)
		t.writtenBit[s>>6] &^= 1 << (s & 63)
	}
	t.written = t.written[:0]
	for i := range t.tables {
		tb := &t.tables[i]
		tb.idxFold.value = 0
		tb.tagFold1.value = 0
		tb.tagFold2.value = 0
	}
	clear(t.hist.bits)
	t.hist.head = 0
	t.useAltCtr = 0
	t.Lookups, t.Mispredict, t.allocs, t.uTick = 0, 0, 0, 0
}

// CopyFrom makes t's tables, history and statistics equal to src's, so both
// predict the same stream from here on. Both predictors must have the same
// geometry.
func (t *TAGE) CopyFrom(src *TAGE) {
	// Slots either side wrote take src's value (zero where only t wrote);
	// every other slot is zero in both.
	for _, s := range t.written {
		t.copySlot(src, s)
		t.writtenBit[s>>6] &^= 1 << (s & 63)
	}
	for _, s := range src.written {
		t.copySlot(src, s)
		t.writtenBit[s>>6] |= 1 << (s & 63)
	}
	t.written = append(t.written[:0], src.written...)
	for i := range t.tables {
		tb, sb := &t.tables[i], &src.tables[i]
		tb.idxFold.value = sb.idxFold.value
		tb.tagFold1.value = sb.tagFold1.value
		tb.tagFold2.value = sb.tagFold2.value
	}
	copy(t.hist.bits, src.hist.bits)
	t.hist.head = src.hist.head
	t.useAltCtr = src.useAltCtr
	t.Lookups, t.Mispredict, t.allocs, t.uTick = src.Lookups, src.Mispredict, src.allocs, src.uTick
}

// BaseCounter exposes the bimodal base counter for the branch at pc — the
// observability hook internal/attack's tests use to assert what predictor
// state a victim run left behind. Read-only.
func (t *TAGE) BaseCounter(pc uint64) int8 { return t.base[pc&t.baseMask] }

// MispredictRate returns the fraction of mispredicted lookups.
func (t *TAGE) MispredictRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Mispredict) / float64(t.Lookups)
}

// Digest fingerprints all predictor state (tables + history) so the leak
// checker can verify that two runs with different secrets left the predictor
// in the identical state under SeMPE.
func (t *TAGE) Digest() uint64 {
	h := newFNV()
	for _, c := range t.base {
		h.mix(uint64(uint8(c)))
	}
	for i := range t.tables {
		for _, e := range t.tables[i].entries {
			v := uint64(e.tag)<<16 | uint64(uint8(e.ctr))<<8 | uint64(e.use)<<1
			if e.live {
				v |= 1
			}
			h.mix(v)
		}
	}
	for _, b := range t.hist.bits {
		h.mix(uint64(b))
	}
	return h.sum
}

// history is a ring buffer of branch-outcome bits with per-table access to
// the bit falling out of each geometric window.
type history struct {
	bits []uint8
	head int // next write position
	lens []int
}

func (h *history) init(maxLen int) {
	h.bits = make([]uint8, maxLen+1)
}

// push inserts a new bit and returns, per registered length (in the order
// tables were created), the bit that left each window. To keep the
// interface simple the caller passes window lengths at update time; push
// returns a getter closure instead of a slice.
func (h *history) push(bit uint8) *historyView {
	view := &historyView{h: h, prevHead: h.head}
	h.bits[h.head] = bit
	h.head = (h.head + 1) % len(h.bits)
	return view
}

type historyView struct {
	h        *history
	prevHead int
}

// at returns the outcome bit that fell out of a window of length l when the
// newest bit was pushed: the bit l positions before the pushed one.
func (v historyView) at(l int) uint8 {
	idx := v.prevHead - l
	n := len(v.h.bits)
	idx = ((idx % n) + n) % n
	return v.h.bits[idx]
}

// folded maintains a circular-shift folded image of the most recent histLen
// history bits compressed to width bits, updated incrementally.
type folded struct {
	value uint32
	width uint
	// outPoint is where the outgoing bit lands after histLen rotations.
	outPoint uint
}

func (f *folded) init(histLen int, width uint) {
	f.width = width
	f.outPoint = uint(histLen) % width
}

func (f *folded) update(in, out uint8, histLen int) {
	v := f.value
	// Rotate left by one and insert the new bit.
	v = (v << 1) | uint32(in)
	v ^= v >> f.width // fold the bit rotated out of the window back in
	v &= 1<<f.width - 1
	// Remove the bit that exits the history window.
	v ^= uint32(out) << f.outPoint
	f.value = v
}

func satUpdate(c int8, up bool, lo, hi int8) int8 {
	if up {
		if c < hi {
			return c + 1
		}
		return c
	}
	if c > lo {
		return c - 1
	}
	return c
}

type fnv struct{ sum uint64 }

func newFNV() *fnv { return &fnv{sum: 1469598103934665603} }

func (f *fnv) mix(v uint64) {
	for i := 0; i < 8; i++ {
		f.sum ^= (v >> (8 * i)) & 0xFF
		f.sum *= 1099511628211
	}
}
