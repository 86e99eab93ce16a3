package compile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/lang"
)

// Template is a compiled program whose per-run scalar initial values can be
// patched directly into the code image, skipping the AST walk and the full
// lowering pipeline for every trial that shares the program's shape. The
// attack drivers compile one template per trial-invariant skeleton and then
// specialize it per trial by rewriting only the prologue's load-immediate
// operands (the initial register values the key, the calibration seed, and
// the gap seed flow through).
//
// Beyond the prologue, a program may declare named literal slots in its body
// (lang.NS): the compiler records the code offset of each instruction whose
// imm32 carries a slot — a load-immediate, or an immediate-form ALU op the
// literal fused into — and the template patches those sites too. Named
// slots occupy the patch-value indices after the prologue scalars, in
// sorted name order; a name appearing at several code points is one slot
// patched at every site.
//
// Patchability is proven, not assumed: NewTemplate decodes the prologue and
// verifies it is exactly one OpLi per scalar, in declaration order, targeting
// the variable's assigned register, and that every named-slot site is an
// unprefixed 8-byte instruction whose imm32 matches the slot's base value.
// Any mismatch — a compiler change, an unexpected prefix, a variable whose
// value reaches the program some other way — is an ErrNotPatchable error, so
// a template can never silently produce a program that differs from what
// Compile would emit.
type Template struct {
	Out *Output

	// immOffs[i] is the byte offset inside Out.Prog.Code of the 4-byte
	// little-endian immediate of the prologue OpLi initializing VarOrder[i].
	immOffs []int

	// namedOffs[j] lists the immediate byte offsets of every code site
	// carrying the j-th named slot (sorted by slot name); its patch value
	// lives at index len(immOffs)+j.
	namedOffs [][]int

	// baseInits[i] is the immediate the template was compiled with —
	// prologue scalars first, then named slots — the default a Specialize
	// caller starts from for values that do not change per trial.
	baseInits []int64

	// slotIdx maps a scalar or named-slot name to its patch-value index.
	slotIdx map[string]int
}

// ErrNotPatchable reports a template whose per-trial values cannot all be
// patched into its code image: NewTemplate could not prove a slot, a caller
// needs a value with no slot, or a value does not fit its immediate.
var ErrNotPatchable = errors.New("compile: template not patchable")

// NewTemplate compiles p and proves the result patchable, returning an
// ErrNotPatchable error when it is not.
func NewTemplate(p *lang.Program, mode Mode) (*Template, error) {
	out, err := Compile(p, mode)
	if err != nil {
		return nil, err
	}
	t := &Template{Out: out}
	if err := t.analyze(); err != nil {
		return nil, err
	}
	return t, nil
}

// analyze locates the prologue's load-immediate slots and verifies the named
// body slots. The prologue starts at the entry point (code emission begins at
// Label("main")) and consists of one OpLi per scalar in declaration order;
// each named-slot site must decode as an unprefixed 8-byte instruction (any
// opcode: the imm32 is its last 4 bytes) carrying the slot's base value.
func (t *Template) analyze() error {
	prog := t.Out.Prog
	off := int(prog.Entry - prog.CodeBase)
	offs := make([]int, 0, len(t.Out.VarOrder))
	inits := make([]int64, 0, len(t.Out.VarOrder))
	idx := make(map[string]int, len(t.Out.VarOrder)+len(t.Out.ImmSlots))
	for i, name := range t.Out.VarOrder {
		in, size, err := isa.Decode(prog.Code, off)
		if err != nil || in.Op != isa.OpLi || in.Secure || in.Rd != t.Out.VarRegs[name] {
			return fmt.Errorf("%w: prologue does not initialize %q with a load-immediate", ErrNotPatchable, name)
		}
		// The immediate is the last 4 bytes of a non-short encoding:
		// opcode, Rd, Ra, Rb, imm32 (little endian).
		offs = append(offs, off+size-4)
		inits = append(inits, in.Imm)
		idx[name] = i
		off += size
	}

	names := make([]string, 0, len(t.Out.ImmSlots))
	for name := range t.Out.ImmSlots {
		names = append(names, name)
	}
	sort.Strings(names)
	named := make([][]int, 0, len(names))
	for _, name := range names {
		if _, dup := idx[name]; dup {
			return fmt.Errorf("%w: named slot %q shadows a scalar", ErrNotPatchable, name)
		}
		sites := make([]int, 0, len(t.Out.ImmSlots[name]))
		var base int64
		for k, start := range t.Out.ImmSlots[name] {
			in, size, err := isa.Decode(prog.Code, start)
			if err != nil || size != 8 {
				return fmt.Errorf("%w: a site of named slot %q is not an unprefixed immediate instruction", ErrNotPatchable, name)
			}
			if k == 0 {
				base = in.Imm
			} else if in.Imm != base {
				return fmt.Errorf("%w: sites of named slot %q disagree (%d vs %d)", ErrNotPatchable, name, base, in.Imm)
			}
			sites = append(sites, start+size-4)
		}
		idx[name] = len(offs) + len(named)
		named = append(named, sites)
		inits = append(inits, base)
	}

	t.immOffs = offs
	t.namedOffs = named
	t.baseInits = inits
	t.slotIdx = idx
	return nil
}

// NumSlots returns the number of patchable value slots: the prologue
// scalars followed by the named literal slots.
func (t *Template) NumSlots() int { return len(t.immOffs) + len(t.namedOffs) }

// BaseInits returns the immediates the template was compiled with —
// Output.VarOrder scalars first, then named slots in sorted name order.
// Callers must treat the slice as read-only.
func (t *Template) BaseInits() []int64 { return t.baseInits }

// SlotIndex returns the patch-value index for a scalar or named-slot name.
func (t *Template) SlotIndex(name string) (int, bool) {
	i, ok := t.slotIdx[name]
	return i, ok
}

// Specialize appends a copy of the template's code with vals patched into
// the prologue and named-slot immediates to buf[:0] and returns it. It
// returns an ErrNotPatchable error when vals does not hold one value per
// slot or a value does not fit the 4-byte immediate encoding. Data segments
// and all other Output metadata are shared with the template: nothing but
// the patched immediates varies per trial.
func (t *Template) Specialize(vals []int64, buf []byte) ([]byte, error) {
	if len(vals) != t.NumSlots() {
		return nil, fmt.Errorf("%w: %d values for %d slots", ErrNotPatchable, len(vals), t.NumSlots())
	}
	for i, v := range vals {
		if int64(int32(v)) != v {
			return nil, fmt.Errorf("%w: slot %d value %d does not fit a 32-bit immediate", ErrNotPatchable, i, v)
		}
	}
	code := append(buf[:0], t.Out.Prog.Code...)
	for i, off := range t.immOffs {
		binary.LittleEndian.PutUint32(code[off:], uint32(int32(vals[i])))
	}
	for j, sites := range t.namedOffs {
		v := uint32(int32(vals[len(t.immOffs)+j]))
		for _, off := range sites {
			binary.LittleEndian.PutUint32(code[off:], v)
		}
	}
	return code, nil
}

// memoCap bounds a Memo's size. The attacked bit is template data, not
// shape (victims report it through KeyInits), so the benchmark's keyextract
// grid (16-bit keys, Noise 2) has at most 900 shapes (12 rows × 25 noisePre
// × 3 noiseWin): well under the cap, so it never evicts
// (Perf.TemplateEvictions stays 0) and every pass after the first compiles
// nothing. On overflow the whole map is dropped and the next misses rebuild
// it — simpler than LRU.
const memoCap = 4096

// Memo is a concurrency-safe content-keyed template cache. The key type is
// a caller-chosen comparable struct capturing everything the program's shape
// depends on; keeping it generic avoids boxing the key on every lookup in
// the trial hot loop.
type Memo[K comparable] struct {
	mu        sync.Mutex
	m         map[K]*Template
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewMemo returns an empty template cache.
func NewMemo[K comparable]() *Memo[K] {
	return &Memo[K]{m: make(map[K]*Template)}
}

// Get returns the cached template for key, or nil on a miss.
func (m *Memo[K]) Get(key K) *Template {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.m[key]
	if t != nil {
		m.hits++
	} else {
		m.misses++
	}
	return t
}

// Put inserts a template, evicting everything first when the cache is full.
func (m *Memo[K]) Put(key K, t *Template) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.m) >= memoCap {
		clear(m.m)
		m.evictions++
	}
	m.m[key] = t
}

// Counters returns the cumulative hit/miss/eviction counts.
func (m *Memo[K]) Counters() (hits, misses, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.evictions
}
