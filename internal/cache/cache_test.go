package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(sizeKB, ways int) (*Cache, *MainMemory) {
	mem := &MainMemory{Latency: 100}
	c := New(Config{Name: "t", SizeBytes: sizeKB << 10, Ways: ways, HitLatency: 2}, mem)
	return c, mem
}

func TestColdMissThenHit(t *testing.T) {
	c, _ := newTestCache(16, 2)
	if lat := c.Access(0x1000, false); lat <= c.hitLatency {
		t.Errorf("cold access latency %d, want a miss", lat)
	}
	if lat := c.Access(0x1000, false); lat != 2 {
		t.Errorf("second access latency %d, want hit (2)", lat)
	}
	if lat := c.Access(0x1038, false); lat != 2 {
		t.Errorf("same-line access latency %d, want hit", lat)
	}
	if c.Stats.Accesses != 3 || c.Stats.Misses != 1 {
		t.Errorf("stats %+v, want 3 accesses 1 miss", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c, _ := newTestCache(16, 2) // 128 sets, 2 ways
	setStride := uint64(c.sets * LineSize)
	a, b, d := uint64(0x0000), setStride, 2*setStride // same set
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("a and d should be resident")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c, mem := newTestCache(16, 2)
	setStride := uint64(c.sets * LineSize)
	c.Access(0, true) // dirty
	before := mem.Stats.Accesses
	c.Access(setStride, false)
	c.Access(2*setStride, false) // evicts line 0, dirty -> write back
	if mem.Stats.Accesses != before+3 {
		t.Errorf("memory accesses %d, want %d (2 fills + 1 writeback)",
			mem.Stats.Accesses, before+3)
	}
}

func TestPrefetchInstallsWithoutDemandStats(t *testing.T) {
	c, _ := newTestCache(16, 2)
	c.Prefetch(0x4000)
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Errorf("prefetch counted as demand access: %+v", c.Stats)
	}
	if c.Stats.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", c.Stats.Prefetches)
	}
	if lat := c.Access(0x4000, false); lat != 2 {
		t.Errorf("post-prefetch access latency %d, want hit", lat)
	}
	// Prefetching a resident line is a no-op.
	c.Prefetch(0x4000)
	if c.Stats.Prefetches != 1 {
		t.Errorf("redundant prefetch counted: %d", c.Stats.Prefetches)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: DL1 miss -> L2 miss -> memory.
	lat1 := h.DL1.Access(0x10000, false)
	if lat1 < 150 {
		t.Errorf("cold load latency %d, want >= memory latency", lat1)
	}
	// Warm DL1.
	if lat := h.DL1.Access(0x10000, false); lat != 2 {
		t.Errorf("warm DL1 latency %d, want 2", lat)
	}
	// A second core-side structure (IL1) misses but hits the shared L2.
	lat3 := h.IL1.Access(0x10000, false)
	if lat3 != 1+12 {
		t.Errorf("IL1-miss/L2-hit latency %d, want 13", lat3)
	}
}

func TestDigestReflectsState(t *testing.T) {
	a, _ := newTestCache(16, 2)
	b, _ := newTestCache(16, 2)
	if a.Digest() != b.Digest() {
		t.Error("empty caches digest differently")
	}
	a.Access(0x1000, false)
	if a.Digest() == b.Digest() {
		t.Error("resident line not reflected in digest")
	}
	b.Access(0x1000, false)
	if a.Digest() != b.Digest() {
		t.Error("identical state digests differently")
	}
	// LRU order within a set matters: use two lines of the same set.
	l0 := uint64(0)
	l1 := uint64(a.sets * LineSize)
	a.Access(l0, false)
	a.Access(l1, false)
	a.Access(l0, false) // a: l0 is MRU
	b.Access(l0, false)
	b.Access(l1, false) // b: l1 is MRU
	if a.Digest() == b.Digest() {
		t.Error("different same-set LRU order produced the same digest")
	}
}

// sortedDigest is Digest as a per-set sort: copy each set's ways, stable
// insertion-sort them by age, mix them in that order. Digest must equal it.
func sortedDigest(c *Cache) uint64 {
	var h uint64 = 1469598103934665603
	type entry struct {
		age, tag uint64
		valid    bool
	}
	for set := 0; set < c.sets; set++ {
		var es []entry
		for w := 0; w < c.ways; w++ {
			i := set*c.ways + w
			es = append(es, entry{c.lruAge[i], c.tags[i], c.valid[i]})
		}
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].age < es[j-1].age; j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		for _, e := range es {
			v := uint64(0)
			if e.valid {
				v = e.tag + 1
			}
			for b := 0; b < 8; b++ {
				h ^= (v >> (8 * b)) & 0xFF
				h *= 1099511628211
			}
		}
	}
	return h
}

// TestDigestAllocationFreeAndUnchanged pins Digest to the per-set sort it
// replaced, on empty, partly filled (invalid ways tie at age 0) and
// thrashed caches of 1, 2 and 4 ways, and requires it to allocate nothing:
// the leak checker takes three digests per observation.
func TestDigestAllocationFreeAndUnchanged(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		c, _ := newTestCache(4, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		for _, n := range []int{0, 7, 40, 3000} {
			for i := 0; i < n; i++ {
				c.Access(uint64(rng.Intn(1<<16)), rng.Intn(4) == 0)
			}
			if got, want := c.Digest(), sortedDigest(c); got != want {
				t.Errorf("%d ways after %d accesses: Digest %#x, per-set sort %#x", ways, n, got, want)
			}
		}
		if a := testing.AllocsPerRun(10, func() { c.Digest() }); a != 0 {
			t.Errorf("%d ways: Digest allocates %.0f times, want 0", ways, a)
		}
	}
	h := NewHierarchy(DefaultHierarchyConfig())
	h.L2.Access(0x4000, false)
	if a := testing.AllocsPerRun(10, func() { h.L2.Digest() }); a != 0 {
		t.Errorf("L2 Digest allocates %.0f times, want 0", a)
	}
}

// TestAccessAlwaysFindsAfterFill: property — any address accessed is
// resident immediately afterwards.
func TestAccessAlwaysFindsAfterFill(t *testing.T) {
	c, _ := newTestCache(16, 2)
	f := func(addr uint64, write bool) bool {
		c.Access(addr, write)
		return c.Contains(addr)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSetBounds: property — lines never land outside their set, i.e. an
// access to address A never evicts a line from a different set.
func TestSetBounds(t *testing.T) {
	c, _ := newTestCache(16, 2)
	rng := rand.New(rand.NewSource(4))
	resident := map[uint64]bool{} // by line address
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 22))
		c.Access(addr, false)
		resident[addr/LineSize] = true
		// Sample a few previously-seen lines from other sets: if absent,
		// they must have been evicted by same-set traffic only, which we
		// cannot directly observe; instead assert the invariant that the
		// just-accessed line is resident and its set holds <= ways lines.
		set, _ := c.index(addr)
		count := 0
		for w := 0; w < c.ways; w++ {
			if c.valid[set*c.ways+w] {
				count++
			}
		}
		if count > c.ways {
			t.Fatalf("set %d holds %d lines", set, count)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mem := &MainMemory{Latency: 1}
	mustPanic(t, func() { New(Config{Name: "x", SizeBytes: 1000, Ways: 3, HitLatency: 1}, mem) })
	mustPanic(t, func() { New(Config{Name: "x", SizeBytes: 192 * LineSize, Ways: 1, HitLatency: 1}, mem) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
