package sempe

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJBTableLIFO(t *testing.T) {
	jb := NewJBTable(30)
	if err := jb.Push(0x100, true); err != nil {
		t.Fatal(err)
	}
	if err := jb.Push(0x200, false); err != nil {
		t.Fatal(err)
	}
	top, err := jb.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top.Target != 0x200 || top.Taken || !top.Valid {
		t.Errorf("top = %+v", *top)
	}
	top.JB = true
	if err := jb.Pop(); err != nil {
		t.Fatal(err)
	}
	top, _ = jb.Top()
	if top.Target != 0x100 || !top.Taken {
		t.Errorf("after pop, top = %+v", *top)
	}
	if top.JB {
		t.Error("outer entry inherited the inner jb bit")
	}
}

func TestJBTableOverflowUnderflow(t *testing.T) {
	jb := NewJBTable(2)
	_ = jb.Push(1, true)
	_ = jb.Push(2, true)
	if err := jb.Push(3, true); !errors.Is(err, ErrOverflow) {
		t.Errorf("overflow push: %v", err)
	}
	_ = jb.Pop()
	_ = jb.Pop()
	if err := jb.Pop(); !errors.Is(err, ErrUnderflow) {
		t.Errorf("underflow pop: %v", err)
	}
	if _, err := jb.Top(); !errors.Is(err, ErrUnderflow) {
		t.Errorf("empty top: %v", err)
	}
}

func TestJBTableSize(t *testing.T) {
	// The paper: even with 30 entries the jbTable is under 256 bytes.
	jb := NewJBTable(30)
	if jb.SizeBytes() >= 256 {
		t.Errorf("jbTable size %d bytes, want < 256", jb.SizeBytes())
	}
}

func TestJBTableInTPathFlags(t *testing.T) {
	jb := NewJBTable(4)
	_ = jb.Push(1, true)
	top, _ := jb.Top()
	top.JB = true // level 0 now in T path
	_ = jb.Push(2, false)
	flags := jb.InTPathFlags(nil)
	if len(flags) != 2 || !flags[0] || flags[1] {
		t.Errorf("flags = %v, want [true false]", flags)
	}
}

// TestJBTableDropNewest: Pop is the only way an entry leaves the table.
// The jbTable is pushed at sJMP commit, so no flush has an entry to unwind
// (internal/pipeline's TestMispredictedSJmpNeverRenames); Push, Top,
// InTPathFlags and a refused Push leave the depth alone, and Pop on an
// empty table is ErrUnderflow.
func TestJBTableDropNewest(t *testing.T) {
	jb := NewJBTable(2)
	_ = jb.Push(1, true)
	_ = jb.Push(2, true)
	if err := jb.Push(3, true); !errors.Is(err, ErrOverflow) {
		t.Fatalf("push past capacity: %v, want ErrOverflow", err)
	}
	if _, err := jb.Top(); err != nil {
		t.Fatal(err)
	}
	jb.InTPathFlags(nil)
	if jb.Depth() != 2 {
		t.Fatalf("depth = %d before any Pop, want 2", jb.Depth())
	}
	for want := 1; want >= 0; want-- {
		if err := jb.Pop(); err != nil {
			t.Fatal(err)
		}
		if jb.Depth() != want {
			t.Errorf("depth = %d after Pop, want %d", jb.Depth(), want)
		}
	}
	if err := jb.Pop(); !errors.Is(err, ErrUnderflow) {
		t.Errorf("Pop on an empty table: %v, want ErrUnderflow", err)
	}
	if jb.Depth() != 0 {
		t.Errorf("depth = %d after an underflowing Pop, want 0", jb.Depth())
	}
}

// TestJBTableLIFOProperty: a random push/pop sequence behaves exactly like a
// reference slice stack.
func TestJBTableLIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		jb := NewJBTable(8)
		var ref []uint64
		for i, op := range ops {
			if op%2 == 0 && len(ref) < 8 {
				v := uint64(i) * 16
				if err := jb.Push(v, op%4 == 0); err != nil {
					return false
				}
				ref = append(ref, v)
			} else if len(ref) > 0 {
				top, err := jb.Top()
				if err != nil || top.Target != ref[len(ref)-1] {
					return false
				}
				if err := jb.Pop(); err != nil {
					return false
				}
				ref = ref[:len(ref)-1]
			}
			if jb.Depth() != len(ref) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJBTableStats(t *testing.T) {
	jb := NewJBTable(8)
	for i := 0; i < 5; i++ {
		_ = jb.Push(uint64(i), false)
	}
	if jb.MaxDepth != 5 || jb.Pushes != 5 {
		t.Errorf("stats: max=%d pushes=%d", jb.MaxDepth, jb.Pushes)
	}
	jb.Reset()
	if jb.Depth() != 0 || jb.MaxDepth != 0 || jb.Pushes != 0 {
		t.Error("reset incomplete")
	}
}
