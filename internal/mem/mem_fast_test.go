package mem

import (
	"encoding/binary"
	"testing"
)

// refRead64 assembles a 64-bit little-endian value byte-by-byte, the
// obviously-correct reference the fast paths are checked against.
func refRead64(m *Memory, addr uint64) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(m.Read8(addr+uint64(i)))
	}
	return v
}

// TestCrossPage64 walks 64-bit reads and writes across a page boundary at
// every split (1..7 bytes in the first page) and checks them against the
// byte-wise reference.
func TestCrossPage64(t *testing.T) {
	boundary := uint64(3 * pageSize)
	for back := uint64(1); back <= 7; back++ {
		addr := boundary - back
		m := NewMemory()
		want := uint64(0x1122334455667788) + back
		m.Write64(addr, want)
		if got := m.Read64(addr); got != want {
			t.Errorf("split %d: Read64 = %#x, want %#x", back, got, want)
		}
		if got := refRead64(m, addr); got != want {
			t.Errorf("split %d: byte-wise readback = %#x, want %#x", back, got, want)
		}
		// The write must not have disturbed neighbors.
		if b := m.Read8(addr - 1); b != 0 {
			t.Errorf("split %d: byte before access clobbered: %#x", back, b)
		}
		if b := m.Read8(addr + 8); b != 0 {
			t.Errorf("split %d: byte after access clobbered: %#x", back, b)
		}
	}
}

// TestCrossPage32 writes a 32-bit value across a page boundary at every
// split (1..3 bytes in the first page) and reads it back through Read64 and
// the byte-wise reference: the ISA has no 4-byte access, so a 4-byte span
// is a WriteBytes.
func TestCrossPage32(t *testing.T) {
	boundary := uint64(5 * pageSize)
	for back := uint64(1); back <= 3; back++ {
		addr := boundary - back
		m := NewMemory()
		want := uint32(0xCAFEBABE) + uint32(back)
		m.WriteBytes(addr, binary.LittleEndian.AppendUint32(nil, want))
		if got := m.Read64(addr); got != uint64(want) {
			t.Errorf("split %d: Read64 = %#x, want %#x", back, got, want)
		}
		if got := refRead64(m, addr); got != uint64(want) {
			t.Errorf("split %d: byte-wise readback = %#x, want %#x", back, got, want)
		}
	}
}

// TestCrossPageUnbacked reads wide values spanning a backed and an unbacked
// page: the unbacked half must read as zero, and the read must not allocate.
func TestCrossPageUnbacked(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize) - 4
	m.WriteBytes(addr, []byte{0x11, 0x22, 0x33, 0x44}) // backs page 0 only
	if got, want := m.Read64(addr), uint64(0x44332211); got != want {
		t.Errorf("Read64 over unbacked tail = %#x, want %#x", got, want)
	}
	if len(m.pages) != 1 {
		t.Errorf("read allocated %d pages, want 1", len(m.pages))
	}
	if got := m.Read64(7 * pageSize); got != 0 {
		t.Errorf("Read64 of fully unbacked page = %#x, want 0", got)
	}
}

// TestLastPageCache alternates between pages so the one-entry cache keeps
// being displaced, then checks the cache never serves stale data after pages
// appear or contents change.
func TestLastPageCache(t *testing.T) {
	m := NewMemory()
	a := uint64(0)            // page 0
	b := uint64(2 * pageSize) // page 2

	// Miss on an unbacked page must not poison the cache for a later write.
	if m.Read64(b) != 0 {
		t.Fatal("unbacked read not zero")
	}
	m.Write64(a, 1) // caches page 0
	m.Write64(b, 2) // allocates and caches page 2
	if m.Read64(b) != 2 {
		t.Error("write-after-unbacked-read lost")
	}
	for i := 0; i < 100; i++ {
		m.Write64(a, uint64(i))
		m.Write64(b, uint64(i)*3)
		if got := m.Read64(a); got != uint64(i) {
			t.Fatalf("iter %d: page A reads %d", i, got)
		}
		if got := m.Read64(b); got != uint64(i)*3 {
			t.Fatalf("iter %d: page B reads %d", i, got)
		}
	}
}

// TestSpanBytesAcrossPages writes a buffer spanning three pages with one
// WriteBytes and checks it byte by byte, and against a memory written one
// Write8 at a time.
func TestSpanBytesAcrossPages(t *testing.T) {
	m, ref := NewMemory(), NewMemory()
	start := uint64(pageSize) - 100
	buf := make([]byte, 2*pageSize+200) // covers pages 0..2 inclusive
	for i := range buf {
		buf[i] = byte(i*7 + 3)
		ref.Write8(start+uint64(i), buf[i])
	}
	m.WriteBytes(start, buf)
	for i := range buf {
		if got := m.Read8(start + uint64(i)); got != buf[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got, buf[i])
		}
	}
	if addr, diff := m.FirstDiff(ref); diff {
		t.Errorf("WriteBytes and byte-wise writes differ at %#x", addr)
	}
}
