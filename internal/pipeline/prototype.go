package pipeline

import (
	"sync"

	"repro/internal/isa"
)

// Prototype is a per-configuration pool of recycled cores. A core vended
// from a warm pool is Reset in place instead of reallocated — New is
// allocation followed by that same Reset, so the two are the same machine,
// which TestPrototypeMatchesNew pins cycle- and event-identical.
//
// prog is the program NewFromPrototype runs and may be nil for callers that
// run a different program per core (leak sweeps, experiment points); they
// vend with NewCoreFor.
type Prototype struct {
	cfg  Config
	prog *isa.Program

	mu   sync.Mutex
	free []*Core
}

// NewPrototype returns an empty core pool for cfg whose NewFromPrototype
// runs prog.
func NewPrototype(cfg Config, prog *isa.Program) *Prototype {
	return &Prototype{cfg: cfg, prog: prog}
}

// NewFromPrototype vends a core running the prototype's program. The caller
// returns the core with Recycle when done.
func NewFromPrototype(p *Prototype) *Core {
	return p.NewCoreFor(p.prog)
}

// NewCoreFor vends a core running prog: a recycled core Reset in place when
// one is free, otherwise a new one.
func (p *Prototype) NewCoreFor(prog *isa.Program) *Core {
	p.mu.Lock()
	var c *Core
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		return New(p.cfg, prog)
	}
	c.Reset(prog)
	return c
}

// Recycle returns a core to the prototype's free list. Caller-armed
// observability (the MemWatch hook, an explicit spec watch) is stripped
// first, since Reset deliberately preserves it and the next borrower is
// unrelated. The core must not be used after Recycle.
func (p *Prototype) Recycle(c *Core) {
	c.MemWatch = nil
	c.SetSpecWatch(nil)
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
