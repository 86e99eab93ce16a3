// Package leak implements the side-channel distinguisher used to validate
// SeMPE's security claim: run the same binary (or a family of binaries
// parameterized by a secret) on a simulated core and compare everything the
// paper's threat model lets an attacker observe — coarse timing, the
// committed instruction-address stream, the memory-access address stream,
// branch-predictor state, and cache state. Under SeMPE every observable must
// be bit-identical across secrets; on the unprotected baseline the
// conditional-branch channels show through.
package leak

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Observation captures one run's attacker-visible footprint.
type Observation struct {
	Cycles       uint64
	Insts        uint64
	CommitDigest uint64 // committed-PC stream
	MemDigest    uint64 // committed load/store address stream
	BPDigest     uint64 // TAGE + ITTAGE + RAS state
	IL1Digest    uint64 // resident lines + LRU order
	DL1Digest    uint64
	L2Digest     uint64
	IL1MissRate  float64
	DL1MissRate  float64
	L2MissRate   float64
}

// Observe runs prog to completion on a core with the given configuration
// and collects the observation.
func Observe(cfg pipeline.Config, prog *isa.Program) (Observation, *pipeline.Core, error) {
	return ObserveWith(cfg, prog, nil)
}

// ObserveWith is Observe with a pre-run configuration callback: setup (when
// non-nil) receives the fresh core before the run starts, which is where
// the attack lab installs its watch hooks (Core.MemWatch, or a spec watch
// via Core.SetSpecWatch) to turn one run into per-segment timings.
func ObserveWith(cfg pipeline.Config, prog *isa.Program, setup func(*pipeline.Core)) (Observation, *pipeline.Core, error) {
	core := pipeline.New(cfg, prog)
	if setup != nil {
		setup(core)
	}
	if err := core.Run(); err != nil {
		return Observation{}, nil, err
	}
	return observationOf(core), core, nil
}

func observationOf(core *pipeline.Core) Observation {
	return Observation{
		Cycles:       core.Cycles(),
		Insts:        core.Stats.Insts,
		CommitDigest: core.CommitDigest(),
		MemDigest:    core.MemDigest(),
		BPDigest:     core.BP.Digest(),
		IL1Digest:    core.Hier.IL1.Digest(),
		DL1Digest:    core.Hier.DL1.Digest(),
		L2Digest:     core.Hier.L2.Digest(),
		IL1MissRate:  core.Hier.IL1.Stats.MissRate(),
		DL1MissRate:  core.Hier.DL1.Stats.MissRate(),
		L2MissRate:   core.Hier.L2.Stats.MissRate(),
	}
}

// corePools recycles cores per configuration for observation paths whose
// callers never see the core (Distinguish, DistinguishMany). A recycled
// core is Reset onto the next program — cycle- and event-identical to a
// fresh construction (pinned by pipeline's TestCoreResetDifferential) —
// which removes per-observation core construction from sweep loops. The
// pipeline.Prototype free list survives GC cycles (unlike sync.Pool), so
// long sweeps re-enter the construction cold path at most once per
// configuration per worker.
var corePools sync.Map // pipeline.Config -> *pipeline.Prototype

// ObservePooled is Observe on a pooled core. Use it only where the core
// itself is not needed after the run; the returned observation is identical
// to Observe's.
func ObservePooled(cfg pipeline.Config, prog *isa.Program) (Observation, error) {
	pi, _ := corePools.LoadOrStore(cfg, pipeline.NewPrototype(cfg, nil))
	proto := pi.(*pipeline.Prototype)
	core := proto.NewCoreFor(prog)
	if err := core.Run(); err != nil {
		// A failed run leaves the core mid-flight; drop it rather than
		// reasoning about partial state.
		return Observation{}, err
	}
	o := observationOf(core)
	// Recycle strips caller-armed hooks (and trace capture) before the core
	// becomes visible to unrelated callers; Reset deliberately preserves
	// them, so stripping happens at the pool boundary.
	proto.Recycle(core)
	return o, nil
}

// Channel names one observable side channel.
type Channel string

// The observable channels compared by the distinguisher.
const (
	ChannelTiming    Channel = "timing"           // total cycles
	ChannelPCTrace   Channel = "pc-trace"         // committed instruction addresses
	ChannelMemTrace  Channel = "mem-trace"        // memory access addresses
	ChannelPredictor Channel = "branch-predictor" // predictor state
	ChannelIL1       Channel = "il1-state"
	ChannelDL1       Channel = "dl1-state"
	ChannelL2        Channel = "l2-state"
)

// AllChannels returns every observable channel, in report order.
func AllChannels() []Channel {
	return []Channel{ChannelTiming, ChannelPCTrace, ChannelMemTrace,
		ChannelPredictor, ChannelIL1, ChannelDL1, ChannelL2}
}

// Report is the outcome of comparing two observations.
type Report struct {
	Leaking []Channel
	A, B    Observation
}

// Leaks reports whether any channel distinguishes the two runs.
func (r Report) Leaks() bool { return len(r.Leaking) > 0 }

// String renders the report for humans.
func (r Report) String() string {
	if !r.Leaks() {
		return "no channel distinguishes the two secrets (all observables identical)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d channel(s) leak:", len(r.Leaking))
	for _, ch := range r.Leaking {
		fmt.Fprintf(&b, " %s", ch)
		if ch == ChannelTiming {
			fmt.Fprintf(&b, "(%d vs %d cycles)", r.A.Cycles, r.B.Cycles)
		}
	}
	return b.String()
}

// Compare diffs every observable channel.
func Compare(a, b Observation) Report {
	r := Report{A: a, B: b}
	add := func(cond bool, ch Channel) {
		if cond {
			r.Leaking = append(r.Leaking, ch)
		}
	}
	add(a.Cycles != b.Cycles, ChannelTiming)
	add(a.CommitDigest != b.CommitDigest, ChannelPCTrace)
	add(a.MemDigest != b.MemDigest, ChannelMemTrace)
	add(a.BPDigest != b.BPDigest, ChannelPredictor)
	add(a.IL1Digest != b.IL1Digest, ChannelIL1)
	add(a.DL1Digest != b.DL1Digest, ChannelDL1)
	add(a.L2Digest != b.L2Digest, ChannelL2)
	return r
}

// Distinguish builds the program for each secret, runs both on the given
// core configuration, and reports which channels tell the secrets apart.
func Distinguish(cfg pipeline.Config, build func(secret uint64) (*isa.Program, error), s1, s2 uint64) (Report, error) {
	p1, err := build(s1)
	if err != nil {
		return Report{}, err
	}
	p2, err := build(s2)
	if err != nil {
		return Report{}, err
	}
	o1, err := ObservePooled(cfg, p1)
	if err != nil {
		return Report{}, fmt.Errorf("leak: run secret=%d: %w", s1, err)
	}
	o2, err := ObservePooled(cfg, p2)
	if err != nil {
		return Report{}, fmt.Errorf("leak: run secret=%d: %w", s2, err)
	}
	return Compare(o1, o2), nil
}

// DistinguishMany generalizes Distinguish to a whole family of secrets: it
// observes the program built for every secret and reports the union of
// channels on which any observation differs from the first. A channel
// absent from the report is bit-identical across ALL secrets — the
// indistinguishability property the leakmatrix scenario asserts per grid
// point. Report.A is the first secret's observation and Report.B the first
// observation that differed on any channel (or the last one when none did).
func DistinguishMany(cfg pipeline.Config, build func(secret uint64) (*isa.Program, error), secrets []uint64) (Report, error) {
	if len(secrets) < 2 {
		return Report{}, fmt.Errorf("leak: need at least 2 secrets, have %d", len(secrets))
	}
	observe := func(s uint64) (Observation, error) {
		p, err := build(s)
		if err != nil {
			return Observation{}, err
		}
		o, err := ObservePooled(cfg, p)
		if err != nil {
			return Observation{}, fmt.Errorf("leak: run secret=%d: %w", s, err)
		}
		return o, nil
	}
	first, err := observe(secrets[0])
	if err != nil {
		return Report{}, err
	}
	leaking := map[Channel]bool{}
	out := Report{A: first}
	for _, s := range secrets[1:] {
		o, err := observe(s)
		if err != nil {
			return Report{}, err
		}
		r := Compare(first, o)
		// B tracks the first differing observation; until one differs it
		// trails the latest, leaving B = last when nothing ever leaked.
		if !out.Leaks() {
			out.B = o
		}
		for _, ch := range r.Leaking {
			if !leaking[ch] {
				leaking[ch] = true
				out.Leaking = append(out.Leaking, ch)
			}
		}
	}
	return out, nil
}

// FirstDivergence runs both programs with full commit-trace capture and
// returns the index and PCs of the first differing committed instruction,
// for diagnosing an unexpected leak. ok is false when the traces agree
// (any leak must then be in another channel).
func FirstDivergence(cfg pipeline.Config, p1, p2 *isa.Program) (idx int, pc1, pc2 uint64, ok bool, err error) {
	run := func(p *isa.Program) (*pipeline.Core, error) {
		c := pipeline.New(cfg, p)
		c.TraceCommits = true
		if err := c.Run(); err != nil {
			return nil, err
		}
		return c, nil
	}
	c1, err := run(p1)
	if err != nil {
		return 0, 0, 0, false, err
	}
	c2, err := run(p2)
	if err != nil {
		return 0, 0, 0, false, err
	}
	n := len(c1.CommitPCs)
	if len(c2.CommitPCs) < n {
		n = len(c2.CommitPCs)
	}
	for i := 0; i < n; i++ {
		if c1.CommitPCs[i] != c2.CommitPCs[i] {
			return i, c1.CommitPCs[i], c2.CommitPCs[i], true, nil
		}
	}
	if len(c1.CommitPCs) != len(c2.CommitPCs) {
		return n, 0, 0, true, nil
	}
	return 0, 0, 0, false, nil
}
