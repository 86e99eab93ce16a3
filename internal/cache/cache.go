// Package cache models a set-associative cache hierarchy with LRU
// replacement and per-level statistics, sized per the paper's Table II:
// 16 KiB 2-way IL1, 32 KiB 2-way DL1, and a shared 256 KiB 2-way L2 in front
// of main memory. Prefetchers (internal/prefetch) hook the demand-access
// stream via the Observer callback.
package cache

import "fmt"

// LineSize is the cache line size in bytes for every level.
const LineSize = 64

// Stats accumulates per-level access counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Prefetches uint64 // lines installed by a prefetcher
}

// MissRate returns Misses/Accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Level is anything that can serve a line fill: a cache or main memory.
type Level interface {
	// Access looks up the line containing addr, filling on miss, and
	// returns the total latency in cycles. write marks the line dirty.
	Access(addr uint64, write bool) (latency int)
}

// MainMemory is the terminal level with a fixed access latency.
type MainMemory struct {
	Latency int
	Stats   Stats
}

// Access always "hits" main memory at fixed latency.
func (m *MainMemory) Access(addr uint64, write bool) int {
	m.Stats.Accesses++
	return m.Latency
}

// Observer is notified of every demand access to a cache, letting
// prefetchers watch the stream. pc is the program counter of the
// instruction performing the access (0 for fills from lower levels).
type Observer interface {
	OnAccess(pc, addr uint64, miss bool)
}

// Cache is one set-associative level.
type Cache struct {
	sets       int
	ways       int
	hitLatency int
	next       Level
	tags       []uint64 // sets*ways entries; tag 0 means invalid via valid bit
	valid      []bool
	dirty      []bool
	lruAge     []uint64 // larger = more recently used
	clock      uint64
	observer   Observer

	// Set selection is a mask/shift pair (set counts are enforced powers of
	// two in New).
	setMask  uint64
	setShift uint

	// FillWatch, when non-nil, observes every line installation (demand miss
	// or prefetch): line is the installed line's address, victim the evicted
	// line's address when evicted is true. It is a pure observer — fills are
	// reported after all replacement state is updated — and costs one nil
	// check per fill when disarmed. The pipeline's spec watch (see
	// internal/pipeline/spec.go) uses it to surface wrong-path cache fills;
	// Reset leaves it armed, like the prefetcher observer.
	FillWatch func(line, victim uint64, evicted bool)

	Stats Stats
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency int
}

// New builds a cache level in front of next.
func New(cfg Config, next Level) *Cache {
	if cfg.SizeBytes%(LineSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*line", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	n := sets * cfg.Ways
	return &Cache{
		sets:       sets,
		ways:       cfg.Ways,
		hitLatency: cfg.HitLatency,
		next:       next,
		tags:       make([]uint64, n),
		valid:      make([]bool, n),
		dirty:      make([]bool, n),
		lruAge:     make([]uint64, n),
		setMask:    uint64(sets - 1),
		setShift:   shift,
	}
}

// SetObserver registers a demand-stream observer (prefetcher).
func (c *Cache) SetObserver(o Observer) { c.observer = o }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / LineSize
	return int(line & c.setMask), line >> c.setShift
}

// Access implements Level for demand accesses (no PC attribution).
func (c *Cache) Access(addr uint64, write bool) int {
	return c.AccessPC(0, addr, write)
}

// AccessPC performs a demand access attributed to the instruction at pc,
// returning the latency. Misses recurse into the next level and fill.
func (c *Cache) AccessPC(pc, addr uint64, write bool) int {
	c.Stats.Accesses++
	c.clock++
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lruAge[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			if c.observer != nil {
				c.observer.OnAccess(pc, addr, false)
			}
			return c.hitLatency
		}
	}
	// Miss: fetch from the next level, then fill.
	c.Stats.Misses++
	lat := c.hitLatency + c.next.Access(addr, false)
	c.fill(set, tag, write)
	if c.observer != nil {
		c.observer.OnAccess(pc, addr, true)
	}
	return lat
}

// Contains reports whether the line holding addr is resident (no state
// change). Used by tests and by the leak checker's cache-state digests.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// ProbeLatency returns the latency a demand access to addr would observe
// right now, without changing any cache state (no fill, no LRU update, no
// stats): the hit latency when the line is resident, otherwise the hit
// latency plus the next level's probed latency. It is the read-only state
// oracle the attack lab's tests use to confirm primed and evicted lines
// (see internal/attack's prime+probe test). An unknown custom level
// cannot be probed statelessly and contributes zero.
func (c *Cache) ProbeLatency(addr uint64) int {
	if c.Contains(addr) {
		return c.hitLatency
	}
	next := 0
	switch n := c.next.(type) {
	case *Cache:
		next = n.ProbeLatency(addr)
	case *MainMemory:
		next = n.Latency
	}
	return c.hitLatency + next
}

// Prefetch installs the line containing addr without charging any demand
// latency (fill bandwidth is not modeled). It still propagates to the next
// level so inclusive behavior and L2 stats stay sensible.
func (c *Cache) Prefetch(addr uint64) {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return // already resident
		}
	}
	c.Stats.Prefetches++
	c.next.Access(addr, false)
	c.fill(set, tag, false)
}

func (c *Cache) fill(set int, tag uint64, write bool) {
	base := set * c.ways
	victim := base
	for w := 1; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lruAge[i] < c.lruAge[victim] {
			victim = i
		}
	}
	evicted := c.valid[victim]
	var victimLine uint64
	if evicted {
		c.Stats.Evictions++
		victimLine = c.victimAddr(set, c.tags[victim])
		// Write-back traffic is accounted in the next level's access count
		// only for dirty lines; latency is hidden by the write buffer.
		if c.dirty[victim] {
			c.next.Access(victimLine, true)
		}
	}
	c.clock++
	c.valid[victim] = true
	c.tags[victim] = tag
	c.dirty[victim] = write
	c.lruAge[victim] = c.clock
	if c.FillWatch != nil {
		c.FillWatch(c.victimAddr(set, tag), victimLine, evicted)
	}
}

func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) * LineSize
}

// Reset restores the level to fresh-construction state without reallocating
// its arrays. lruAge must be cleared along with the tags: Digest orders ways
// by age, so stale ages on an otherwise-empty cache would fingerprint
// differently from a new one.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	clear(c.lruAge)
	c.clock = 0
	c.Stats = Stats{}
}

// CopyFrom makes c's resident lines, replacement state and stats equal to
// src's. Both levels must have the same geometry; c keeps its own wiring
// (next level, observer, FillWatch), like Reset.
func (c *Cache) CopyFrom(src *Cache) {
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	copy(c.lruAge, src.lruAge)
	c.clock = src.clock
	c.Stats = src.Stats
}

// Digest returns a deterministic fingerprint of the cache's resident-line
// state (tags and LRU order). The leak checker compares digests produced by
// runs with different secrets: under SeMPE they must be identical.
func (c *Cache) Digest() uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		// Visit ways by age so the digest reflects LRU state, not the
		// arbitrary way index: ascending (age, way), the order a stable
		// sort by age gives. Each pass selects the next way in that order,
		// so no per-set buffer is needed.
		prevAge, prevWay := uint64(0), -1
		for k := 0; k < c.ways; k++ {
			next := -1
			for w := 0; w < c.ways; w++ {
				a := c.lruAge[base+w]
				if (a > prevAge || a == prevAge && w > prevWay) && (next < 0 || a < c.lruAge[base+next]) {
					next = w
				}
			}
			prevAge, prevWay = c.lruAge[base+next], next
			v := uint64(0)
			if i := base + next; c.valid[i] {
				v = c.tags[i] + 1
			}
			for b := 0; b < 8; b++ {
				h ^= (v >> (8 * b)) & 0xFF
				h *= 1099511628211
			}
		}
	}
	return h
}

// Hierarchy bundles the three levels from Table II plus main memory.
type Hierarchy struct {
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
	Mem *MainMemory
}

// HierarchyConfig sizes the three levels.
type HierarchyConfig struct {
	IL1, DL1, L2 Config
	MemLatency   int
}

// DefaultHierarchyConfig mirrors Table II with conventional latencies.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL1:        Config{Name: "il1", SizeBytes: 16 << 10, Ways: 2, HitLatency: 1},
		DL1:        Config{Name: "dl1", SizeBytes: 32 << 10, Ways: 2, HitLatency: 2},
		L2:         Config{Name: "l2", SizeBytes: 256 << 10, Ways: 2, HitLatency: 12},
		MemLatency: 150,
	}
}

// Reset restores every level (and the main-memory stats) to
// fresh-construction state without reallocating.
func (h *Hierarchy) Reset() {
	h.IL1.Reset()
	h.DL1.Reset()
	h.L2.Reset()
	h.Mem.Stats = Stats{}
}

// CopyFrom makes every level (and the main-memory stats) equal to src's.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.IL1.CopyFrom(src.IL1)
	h.DL1.CopyFrom(src.DL1)
	h.L2.CopyFrom(src.L2)
	h.Mem.Stats = src.Mem.Stats
}

// NewHierarchy wires IL1 and DL1 in front of a shared L2 and main memory.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	memory := &MainMemory{Latency: cfg.MemLatency}
	l2 := New(cfg.L2, memory)
	return &Hierarchy{
		IL1: New(cfg.IL1, l2),
		DL1: New(cfg.DL1, l2),
		L2:  l2,
		Mem: memory,
	}
}
