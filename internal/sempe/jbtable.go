// Package sempe implements the architectural state of Secure Multi-Path
// Execution: the Jump-Back Table (jbTable) — the hardware LIFO that drives
// dual-path execution of secure branches — and the controller bookkeeping
// shared by the functional and cycle-level machines.
//
// Per the paper (§IV-E, Fig. 5), each jbTable entry holds the sJMP
// destination address, the real branch outcome (T/NT bit), a Valid bit set
// when the sJMP commits and its target is known, and a Jump-Back (jb) bit
// set when the first eosJMP redirects execution into the taken path. The
// LIFO discipline is what lets SeMPE handle nested secure branches with a
// structure of well under 256 bytes instead of a random-access table.
package sempe

import (
	"errors"
	"fmt"
)

// Entry is one jbTable row.
type Entry struct {
	Target uint64 // sJMP destination address (start of the taken path)
	Taken  bool   // real branch outcome (the T/NT bit field)
	Valid  bool   // target has been written (sJMP committed)
	JB     bool   // first eosJMP has jumped back already
}

// ErrOverflow reports secure-branch nesting beyond the table capacity. The
// paper proposes rejecting such programs at compile time or raising a
// runtime exception; the simulator surfaces the exception.
var ErrOverflow = errors.New("sempe: jbTable overflow (secure nesting too deep)")

// ErrUnderflow reports an eosJMP with no live sJMP, i.e. a malformed binary.
var ErrUnderflow = errors.New("sempe: jbTable underflow (eosJMP without sJMP)")

// JBTable is the LIFO of live secure branches.
type JBTable struct {
	entries []Entry
	depth   int

	// Stats
	Pushes   uint64
	MaxDepth int
}

// NewJBTable builds a table with the given number of entries. The paper uses
// 30 (one per SPM snapshot slot).
func NewJBTable(capacity int) *JBTable {
	if capacity <= 0 {
		panic(fmt.Sprintf("sempe: bad jbTable capacity %d", capacity))
	}
	return &JBTable{entries: make([]Entry, capacity)}
}

// Depth returns the number of live entries.
func (t *JBTable) Depth() int { return t.depth }

// Cap returns the table capacity (max supported sJMP nesting).
func (t *JBTable) Cap() int { return len(t.entries) }

// Push allocates a new entry for a committing sJMP. Valid is set
// immediately because the destination address is written at commit.
func (t *JBTable) Push(target uint64, taken bool) error {
	if t.depth >= len(t.entries) {
		return fmt.Errorf("%w: capacity %d", ErrOverflow, len(t.entries))
	}
	t.entries[t.depth] = Entry{Target: target, Taken: taken, Valid: true}
	t.depth++
	t.Pushes++
	if t.depth > t.MaxDepth {
		t.MaxDepth = t.depth
	}
	return nil
}

// Top returns a pointer to the most recent entry.
func (t *JBTable) Top() (*Entry, error) {
	if t.depth == 0 {
		return nil, ErrUnderflow
	}
	return &t.entries[t.depth-1], nil
}

// Pop removes the most recent entry (second eosJMP commit).
func (t *JBTable) Pop() error {
	if t.depth == 0 {
		return ErrUnderflow
	}
	t.depth--
	return nil
}

// InTPathFlags fills buf with one flag per live nesting level: true when
// that level is currently executing its taken path (jb already set). Used
// to attribute register modifications to the correct per-path bit-vector.
func (t *JBTable) InTPathFlags(buf []bool) []bool {
	buf = buf[:0]
	for i := 0; i < t.depth; i++ {
		buf = append(buf, t.entries[i].JB)
	}
	return buf
}

// SizeBytes returns the hardware cost of the table: 64-bit address plus
// T/NT, Valid and jb bits per entry. With 30 entries this is well under the
// 256-byte bound quoted in the paper.
func (t *JBTable) SizeBytes() int {
	bits := len(t.entries) * (64 + 3)
	return (bits + 7) / 8
}

// CopyFrom makes the table's live entries and statistics equal to src's.
// Both tables must have the same capacity.
func (t *JBTable) CopyFrom(src *JBTable) {
	copy(t.entries, src.entries[:src.depth])
	t.depth = src.depth
	t.Pushes = src.Pushes
	t.MaxDepth = src.MaxDepth
}

// Reset clears all entries and statistics.
func (t *JBTable) Reset() {
	t.depth = 0
	t.Pushes = 0
	t.MaxDepth = 0
}
