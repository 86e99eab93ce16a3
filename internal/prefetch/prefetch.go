// Package prefetch implements the two hardware prefetchers from the paper's
// Table II: a per-PC stride prefetcher attached to the DL1 and a
// sequential-stream prefetcher attached to the L2. Both observe the demand
// access stream of their cache via cache.Observer and install lines with
// Cache.Prefetch.
package prefetch

import "repro/internal/cache"

// Stride is a classic reference-prediction-table stride prefetcher: it
// tracks (last address, stride, confidence) per load/store PC and, once the
// stride has been confirmed twice, prefetches Degree lines ahead.
type Stride struct {
	target  *cache.Cache
	entries []strideEntry
	mask    uint64
	degree  int

	Issued uint64 // prefetches issued
}

type strideEntry struct {
	pc     uint64
	last   uint64
	stride int64
	conf   int8
}

// NewStride builds a stride prefetcher with a power-of-two table size.
func NewStride(target *cache.Cache, tableSize, degree int) *Stride {
	if tableSize&(tableSize-1) != 0 {
		panic("prefetch: stride table size must be a power of two")
	}
	return &Stride{
		target:  target,
		entries: make([]strideEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
	}
}

// OnAccess implements cache.Observer.
func (s *Stride) OnAccess(pc, addr uint64, miss bool) {
	if pc == 0 {
		return
	}
	// Mix high PC bits into the index: instruction addresses are often
	// aligned, and a plain shift would alias distinct loops onto entry 0.
	e := &s.entries[(pc^(pc>>7))&s.mask]
	if e.pc != pc {
		*e = strideEntry{pc: pc, last: addr}
		return
	}
	stride := int64(addr) - int64(e.last)
	switch {
	case stride == 0:
		return
	case stride == e.stride:
		if e.conf < 3 {
			e.conf++
		}
	default:
		e.stride = stride
		e.conf = 0
	}
	e.last = addr
	if e.conf >= 2 {
		for d := 1; d <= s.degree; d++ {
			next := uint64(int64(addr) + e.stride*int64(d))
			s.target.Prefetch(next)
			s.Issued++
		}
	}
}

// Reset restores the prefetcher to fresh-construction state without
// reallocating its table.
func (s *Stride) Reset() {
	clear(s.entries)
	s.Issued = 0
}

// CopyFrom makes the prefetcher's table and count equal to src's. Both
// tables must have the same size.
func (s *Stride) CopyFrom(src *Stride) {
	copy(s.entries, src.entries)
	s.Issued = src.Issued
}

// Stream is a next-line stream prefetcher: on a demand miss it checks for a
// recent miss to the previous line and, when found, prefetches the following
// Depth lines. This is the "stream pref. (L2)" of Table II.
type Stream struct {
	target *cache.Cache
	recent []uint64 // recent miss line addresses (ring)
	head   int
	depth  int
	Issued uint64
}

// NewStream builds a stream prefetcher tracking the given number of recent
// misses and prefetching depth lines ahead on a detected stream.
func NewStream(target *cache.Cache, window, depth int) *Stream {
	return &Stream{
		target: target,
		recent: make([]uint64, window),
		depth:  depth,
	}
}

// OnAccess implements cache.Observer.
func (s *Stream) OnAccess(pc, addr uint64, miss bool) {
	if !miss {
		return
	}
	line := addr / cache.LineSize
	for _, prev := range s.recent {
		if prev != 0 && prev+1 == line {
			for d := 1; d <= s.depth; d++ {
				s.target.Prefetch((line + uint64(d)) * cache.LineSize)
				s.Issued++
			}
			break
		}
	}
	s.recent[s.head] = line
	s.head = (s.head + 1) % len(s.recent)
}

// Reset restores the prefetcher to fresh-construction state without
// reallocating its miss window.
func (s *Stream) Reset() {
	clear(s.recent)
	s.head = 0
	s.Issued = 0
}

// CopyFrom makes the prefetcher's miss window and count equal to src's.
// Both windows must have the same size.
func (s *Stream) CopyFrom(src *Stream) {
	copy(s.recent, src.recent)
	s.head = src.head
	s.Issued = src.Issued
}
