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

// ObservePooled runs prog to completion on a core from the configuration's
// pool (pipeline.PoolFor) and collects the observation; the core goes back
// to the pool, so its callers (Distinguish, DistinguishMany) never see it.
// A recycled core is Reset onto the next program — cycle- and
// event-identical to a fresh construction (pinned by pipeline's
// TestCoreResetDifferential) — so the observation equals a fresh core's.
func ObservePooled(cfg pipeline.Config, prog *isa.Program) (Observation, error) {
	proto := pipeline.PoolFor(cfg)
	core := proto.NewCoreFor(prog)
	if err := core.Run(); err != nil {
		// A failed run leaves the core mid-flight; drop it rather than
		// reasoning about partial state.
		return Observation{}, err
	}
	o := observationOf(core)
	// Recycle strips caller-armed hooks before the core becomes visible to
	// unrelated callers; Reset deliberately preserves them, so stripping
	// happens at the pool boundary.
	proto.Recycle(core)
	return o, nil
}

// Channel names one observable side channel.
type Channel string

// The observable channels compared by the distinguisher.
const (
	ChannelTiming    Channel = "timing"           // total cycles
	ChannelPCTrace   Channel = "pc-trace"         // committed instruction addresses
	ChannelMemAddrs  Channel = "mem-trace"        // memory access addresses
	ChannelPredictor Channel = "branch-predictor" // predictor state
	ChannelIL1       Channel = "il1-state"
	ChannelDL1       Channel = "dl1-state"
	ChannelL2        Channel = "l2-state"
)

// AllChannels returns every observable channel, in report order.
func AllChannels() []Channel {
	return []Channel{ChannelTiming, ChannelPCTrace, ChannelMemAddrs,
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
	add(a.MemDigest != b.MemDigest, ChannelMemAddrs)
	add(a.BPDigest != b.BPDigest, ChannelPredictor)
	add(a.IL1Digest != b.IL1Digest, ChannelIL1)
	add(a.DL1Digest != b.DL1Digest, ChannelDL1)
	add(a.L2Digest != b.L2Digest, ChannelL2)
	return r
}

// Distinguish builds the program for each secret, runs both on the given
// core configuration, and reports which channels tell the secrets apart:
// DistinguishMany over the two secrets.
func Distinguish(cfg pipeline.Config, build func(secret uint64) (*isa.Program, error), s1, s2 uint64) (Report, error) {
	return DistinguishMany(cfg, build, []uint64{s1, s2})
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
