package pipeline

import (
	"sync"

	"repro/internal/isa"
)

// Prototype is the shared, immutable part of core construction for one
// (config, program) pair, plus a free list of recycled cores. New spends
// most of its time sizing per-core state and (lazily, via predecAt) decoding
// the program; a prototype does the program decode exactly once, eagerly,
// and hands the resulting table to every core it vends as a read-only
// shared slice. Spin-up from a warm prototype is then a pooled Reset — no
// allocation, no decode — which TestCoreResetDifferential and
// TestPrototypeMatchesNew pin as cycle- and event-identical to a fresh New.
//
// prog may be nil: the prototype then acts as a plain per-configuration core
// pool (NewCoreFor) with no shared decode table, which is what callers
// running a different program per trial (leak sweeps, experiment points)
// use. With a non-nil prog, NewFromPrototype vends cores that share the
// prototype's fully resolved pre-decode table.
//
// The shared table is safe across concurrently running cores because it is
// fully resolved at construction: every offset is either decoded (size>0)
// or marked undecodable (size<0), so the lazy fill in predecAt — the only
// writer — never fires.
type Prototype struct {
	cfg     Config
	prog    *isa.Program
	decoded []predec // fully resolved, shared read-only; nil when prog is nil

	mu   sync.Mutex
	free []*Core
}

// NewPrototype builds a prototype for cfg. With a non-nil prog the program
// is decoded eagerly at every code offset, exactly as predecAt would have
// lazily (undecodable bytes — wrong-path fetch targets — mark size<0).
func NewPrototype(cfg Config, prog *isa.Program) *Prototype {
	p := &Prototype{cfg: cfg, prog: prog}
	if prog != nil {
		p.decoded = make([]predec, len(prog.Code))
		for off := range p.decoded {
			d := &p.decoded[off]
			inst, size, err := isa.Decode(prog.Code, off)
			if err != nil {
				d.size = -1
				continue
			}
			d.inst, d.size = inst, int8(size)
			fillStatic(d)
		}
	}
	return p
}

// NewFromPrototype vends a core running the prototype's program: a recycled
// core Reset in place when one is free, otherwise a fresh construction.
// Either way the core shares the prototype's pre-decode table. The caller
// returns the core with Recycle when done.
func NewFromPrototype(p *Prototype) *Core {
	return p.NewCoreFor(p.prog)
}

// NewCoreFor vends a core running prog, recycling a pooled core when one is
// free. When prog is the prototype's own program the core shares the
// prototype's pre-decode table; for any other program it keeps a private
// table (Reset detaches a shared one before clearing).
func (p *Prototype) NewCoreFor(prog *isa.Program) *Core {
	p.mu.Lock()
	var c *Core
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if c != nil {
		c.Reset(prog)
	} else {
		c = New(p.cfg, prog)
	}
	if prog != nil && prog == p.prog && c.sharedDecoded != prog {
		c.decoded = p.decoded
		c.sharedDecoded = prog
	}
	return c
}

// Recycle returns a core to the prototype's free list. Caller-armed
// observability (the MemWatch hook, trace capture, an explicit spec watch)
// is stripped first, since Reset deliberately preserves it and
// the next borrower is unrelated. The core must not be used after Recycle.
func (p *Prototype) Recycle(c *Core) {
	c.MemWatch = nil
	c.TraceCommits = false
	c.SetSpecWatch(nil)
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
