// Package mem provides the memory substrates of the simulator: a sparse flat
// main memory and the SeMPE Scratchpad Memory (SPM) used for architectural
// register snapshots.
package mem

import (
	"encoding/binary"

	"repro/internal/isa"
)

// pageBits selects a 16 KiB page for the sparse backing store. This is a
// simulator implementation detail, unrelated to the simulated 4 MiB VM pages
// from the paper's Table II (no TLB is modeled).
const pageBits = 14

const pageSize = 1 << pageBits

// noPage is the last-page cache sentinel: page keys are addr>>pageBits, so
// the all-ones key can never occur.
const noPage = ^uint64(0)

// Memory is a sparse, byte-addressable 64-bit memory. Reads of unbacked
// addresses return zero; writes allocate pages on demand. All methods are
// deterministic, which the leak checker depends on.
//
// A one-entry last-page cache sits in front of the pages map: straight-line
// access streams (code fetch, stack traffic, sequential buffers) hit the same
// page repeatedly and skip the map lookup entirely.
type Memory struct {
	pages   map[uint64][]byte
	lastKey uint64
	lastPg  []byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte), lastKey: noPage}
}

// Load copies a program image (code and data segments) into memory.
func (m *Memory) Load(p *isa.Program) {
	m.WriteBytes(p.CodeBase, p.Code)
	for _, seg := range p.Data {
		m.WriteBytes(seg.Base, seg.Bytes)
	}
}

func (m *Memory) page(addr uint64, alloc bool) []byte {
	key := addr >> pageBits
	if key == m.lastKey {
		return m.lastPg
	}
	pg, ok := m.pages[key]
	if !ok {
		if !alloc {
			return nil
		}
		pg = make([]byte, pageSize)
		m.pages[key] = pg
	}
	m.lastKey, m.lastPg = key, pg
	return pg
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint64) byte {
	pg := m.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[addr&(pageSize-1)]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint64, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read64 returns the little-endian 64-bit word at addr (any alignment).
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		pg := m.page(addr, false)
		if pg == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(pg[off:])
	}
	var buf [8]byte
	m.readSpan(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write64 stores a little-endian 64-bit word at addr (any alignment).
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.writeSpan(addr, buf[:])
}

// readSpan fills dst from memory starting at addr, one bulk copy per page
// touched. Unbacked pages read as zero.
func (m *Memory) readSpan(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := uint64(pageSize - off)
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if pg := m.page(addr, false); pg != nil {
			copy(dst[:n], pg[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// writeSpan stores src into memory starting at addr, one bulk copy per page
// touched, allocating pages on demand.
func (m *Memory) writeSpan(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & (pageSize - 1)
		n := uint64(pageSize - off)
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		copy(m.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	m.writeSpan(addr, b)
}

// Reset zeroes the memory image without releasing its pages: allocated
// pages are cleared in place and stay mapped, so a reloaded program reuses
// them instead of faulting fresh ones. Zero-filled pages are
// indistinguishable from absent ones (see FirstDiff), so a reset memory is
// semantically empty.
func (m *Memory) Reset() {
	for _, pg := range m.pages {
		clear(pg)
	}
	m.lastKey, m.lastPg = noPage, nil
}

// FirstDiff returns the lowest address at which the two memories differ and
// true, or 0 and false if they are identical.
func (m *Memory) FirstDiff(o *Memory) (uint64, bool) {
	seen := make(map[uint64]bool)
	var keys []uint64
	for k := range m.pages {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range o.pages {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sortU64(keys)
	for _, k := range keys {
		base := k << pageBits
		for i := uint64(0); i < pageSize; i++ {
			if m.Read8(base+i) != o.Read8(base+i) {
				return base + i, true
			}
		}
	}
	return 0, false
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
