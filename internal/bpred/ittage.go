package bpred

// mix64 is a splitmix64-style finalizer with full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ITTAGE predicts indirect-branch targets with the same tagged
// geometric-history structure as TAGE, storing full targets instead of
// direction counters (~6 KB per Table II). In this ISA only JALR needs it;
// returns are handled by the RAS first and fall back here.
type ITTAGE struct {
	base   map[uint64]ittEntry // base table keyed by pc hash
	mask   uint64
	tables []ittTable
	hist   history

	Lookups    uint64
	Mispredict uint64
}

type ittTable struct {
	entries []ittEntry
	mask    uint64
	histLen int
	tagBits uint
	idxFold folded
	tagFold folded
}

type ittEntry struct {
	tag    uint16
	target uint64
	conf   int8
	live   bool
}

// ITTAGEConfig sizes the target predictor.
type ITTAGEConfig struct {
	TableBits int
	TagBits   uint
	HistLens  []int
}

// DefaultITTAGEConfig approximates the 6 KB budget of Table II: four
// 128-entry tables of ~10-byte entries.
func DefaultITTAGEConfig() ITTAGEConfig {
	return ITTAGEConfig{TableBits: 7, TagBits: 9, HistLens: []int{4, 16, 64, 128}}
}

// NewITTAGE builds an indirect-target predictor.
func NewITTAGE(cfg ITTAGEConfig) *ITTAGE {
	it := &ITTAGE{base: make(map[uint64]ittEntry), mask: 255}
	maxLen := 0
	for _, hl := range cfg.HistLens {
		if hl > maxLen {
			maxLen = hl
		}
	}
	it.hist.init(maxLen)
	for _, hl := range cfg.HistLens {
		tb := ittTable{
			entries: make([]ittEntry, 1<<cfg.TableBits),
			mask:    1<<cfg.TableBits - 1,
			histLen: hl,
			tagBits: cfg.TagBits,
		}
		tb.idxFold.init(hl, uint(cfg.TableBits))
		tb.tagFold.init(hl, cfg.TagBits)
		it.tables = append(it.tables, tb)
	}
	return it
}

func (tb *ittTable) index(pc uint64) uint64 {
	return (pc ^ (pc >> 7) ^ uint64(tb.idxFold.value)) & tb.mask
}

func (tb *ittTable) tag(pc uint64) uint16 {
	return uint16((pc ^ uint64(tb.tagFold.value)) & (1<<tb.tagBits - 1))
}

// Predict returns the predicted target of the indirect branch at pc and
// whether any component had a prediction.
func (it *ITTAGE) Predict(pc uint64) (uint64, bool) {
	for i := len(it.tables) - 1; i >= 0; i-- {
		tb := &it.tables[i]
		e := &tb.entries[tb.index(pc)]
		if e.live && e.tag == tb.tag(pc) && e.conf >= 0 {
			return e.target, true
		}
	}
	if e, ok := it.base[pc&it.mask]; ok {
		return e.target, true
	}
	return 0, false
}

// Update trains the predictor with the committed target, in program order.
func (it *ITTAGE) Update(pc, target uint64) {
	it.Lookups++
	pred, ok := it.Predict(pc)
	correct := ok && pred == target
	if !correct {
		it.Mispredict++
	}

	// Train the matching component, or allocate one on a miss.
	provider := -1
	for i := len(it.tables) - 1; i >= 0; i-- {
		tb := &it.tables[i]
		e := &tb.entries[tb.index(pc)]
		if e.live && e.tag == tb.tag(pc) {
			provider = i
			if e.target == target {
				e.conf = satUpdate(e.conf, true, -2, 1)
			} else if e.conf <= -2 || !ok {
				e.target = target
				e.conf = 0
			} else {
				e.conf = satUpdate(e.conf, false, -2, 1)
			}
			break
		}
	}
	if !correct {
		start := provider + 1
		for i := start; i < len(it.tables); i++ {
			tb := &it.tables[i]
			e := &tb.entries[tb.index(pc)]
			if !e.live || e.conf < 0 {
				*e = ittEntry{tag: tb.tag(pc), target: target, conf: 0, live: true}
				break
			}
		}
	}
	it.base[pc&it.mask] = ittEntry{target: target, live: true}

	// Push a target-derived history bit. A full avalanche mix is needed
	// here: targets that differ in one bit (or a pure multiplicative hash
	// of them) can agree on any fixed output bit, which would make
	// alternating-target patterns inseparable by the tagged components.
	bit := uint8(mix64(target)) & 1
	old := it.hist.push(bit)
	for i := range it.tables {
		tb := &it.tables[i]
		out := old.at(tb.histLen)
		tb.idxFold.update(bit, out, tb.histLen)
		tb.tagFold.update(bit, out, tb.histLen)
	}
}

// Reset restores the predictor to its fresh-construction state without
// reallocating tables (the base map keeps its buckets across clear, so a
// reset-heavy trial loop stays allocation-free at steady state).
func (it *ITTAGE) Reset() {
	clear(it.base)
	for i := range it.tables {
		tb := &it.tables[i]
		clear(tb.entries)
		tb.idxFold.value = 0
		tb.tagFold.value = 0
	}
	clear(it.hist.bits)
	it.hist.head = 0
	it.Lookups, it.Mispredict = 0, 0
}

// CopyFrom makes the predictor's tables, history and statistics equal to
// src's. Both predictors must have the same geometry.
func (it *ITTAGE) CopyFrom(src *ITTAGE) {
	clear(it.base)
	for k, e := range src.base {
		it.base[k] = e
	}
	for i := range it.tables {
		tb, sb := &it.tables[i], &src.tables[i]
		copy(tb.entries, sb.entries)
		tb.idxFold.value = sb.idxFold.value
		tb.tagFold.value = sb.tagFold.value
	}
	copy(it.hist.bits, src.hist.bits)
	it.hist.head = src.hist.head
	it.Lookups, it.Mispredict = src.Lookups, src.Mispredict
}

// Digest fingerprints all table and history state.
func (it *ITTAGE) Digest() uint64 {
	h := newFNV()
	// The base map is keyed by a bounded hash; iterate keys in order.
	for k := uint64(0); k <= it.mask; k++ {
		if e, ok := it.base[k]; ok {
			h.mix(k)
			h.mix(e.target)
		}
	}
	for i := range it.tables {
		for _, e := range it.tables[i].entries {
			if e.live {
				h.mix(uint64(e.tag))
				h.mix(e.target)
				h.mix(uint64(uint8(e.conf)))
			} else {
				h.mix(0)
			}
		}
	}
	for _, b := range it.hist.bits {
		h.mix(uint64(b))
	}
	return h.sum
}
