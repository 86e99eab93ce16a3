package prefetch

import (
	"testing"

	"repro/internal/cache"
)

func newDL1() *cache.Cache {
	mem := &cache.MainMemory{Latency: 100}
	return cache.New(cache.Config{Name: "dl1", SizeBytes: 32 << 10, Ways: 2, HitLatency: 2}, mem)
}

func TestStrideDetectsAndPrefetches(t *testing.T) {
	dl1 := newDL1()
	pf := NewStride(dl1, 64, 2)
	pc := uint64(0x1000)
	stride := uint64(256) // 4 lines apart so prefetches are visible
	// Train: first three accesses establish the stride.
	for i := 0; i < 4; i++ {
		addr := uint64(0x100000) + uint64(i)*stride
		pf.OnAccess(pc, addr, true)
	}
	if pf.Issued == 0 {
		t.Fatal("no prefetches issued after a confirmed stride")
	}
	// The next strided address should now hit.
	next := uint64(0x100000) + 4*stride
	if !dl1.Contains(next) {
		t.Errorf("next strided line %#x not prefetched", next)
	}
}

func TestStrideIgnoresIrregularPCs(t *testing.T) {
	dl1 := newDL1()
	pf := NewStride(dl1, 64, 2)
	addrs := []uint64{0x1000, 0x9000, 0x2000, 0xF000, 0x3000}
	for _, a := range addrs {
		pf.OnAccess(0x4000, a, true)
	}
	if pf.Issued != 0 {
		t.Errorf("issued %d prefetches on an irregular stream", pf.Issued)
	}
}

func TestStrideDistinguishesPCs(t *testing.T) {
	dl1 := newDL1()
	pf := NewStride(dl1, 64, 1)
	// Two interleaved strided streams from different PCs must both train.
	for i := 0; i < 5; i++ {
		pf.OnAccess(0x1000, uint64(0x200000)+uint64(i)*128, false)
		pf.OnAccess(0x2000, uint64(0x400000)+uint64(i)*192, false)
	}
	if !dl1.Contains(0x200000+5*128) || !dl1.Contains(0x400000+5*192) {
		t.Error("interleaved streams not both prefetched")
	}
}

func TestStreamPrefetchesSequentialMisses(t *testing.T) {
	mem := &cache.MainMemory{Latency: 100}
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 256 << 10, Ways: 2, HitLatency: 12}, mem)
	pf := NewStream(l2, 16, 2)
	base := uint64(0x300000)
	pf.OnAccess(0, base, true)
	pf.OnAccess(0, base+cache.LineSize, true) // sequential miss -> stream
	if pf.Issued != 2 {
		t.Fatalf("sequential miss pattern issued %d prefetches, want one stream of depth 2", pf.Issued)
	}
	if !l2.Contains(base + 2*cache.LineSize) {
		t.Error("next line of the stream not prefetched")
	}
	if !l2.Contains(base + 3*cache.LineSize) {
		t.Error("depth-2 line of the stream not prefetched")
	}
}

func TestStreamIgnoresHitsAndRandomMisses(t *testing.T) {
	mem := &cache.MainMemory{Latency: 100}
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 256 << 10, Ways: 2, HitLatency: 12}, mem)
	pf := NewStream(l2, 8, 1)
	pf.OnAccess(0, 0x10000, false) // hit: ignored
	pf.OnAccess(0, 0x50000, true)
	pf.OnAccess(0, 0x90000, true) // unrelated misses
	if pf.Issued != 0 {
		t.Errorf("stream fired on random misses: issued=%d", pf.Issued)
	}
}
