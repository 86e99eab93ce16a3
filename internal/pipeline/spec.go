package pipeline

import (
	"sync/atomic"

	"repro/internal/isa"
)

// Speculative-window observability. The MemWatch hook fires at retirement,
// so by construction it can never see transient work — the wrong-path
// fetches, executions, and cache fills that Spectre-style attacks exploit
// and that SeMPE exists to neutralize. SpecWatch is the speculative
// counterpart: when armed, the core reports every microarchitecturally
// visible action of every in-flight micro-op, wrong-path included, as a
// stream of SpecEvents. Each per-uop event is emitted speculatively (the core
// cannot yet know whether the op will commit) and its disposition is settled
// by the SpecCommit/SpecFlush events that follow it; the Tracer resolves a
// recorded stream in one backward pass when it is read.
//
// The per-fetch events (SpecFetch, SpecBPLookup, and the IL1 fills a fetch
// triggers) are emitted by fetch from the decode cache itself, so arming a
// watch never changes how fetch runs. The emission points are pure
// observers: TestSpecStreamReplayMatchesWalk pins the stream of the
// pipeline's test programs, and TestSpecTraceDifferential pins that arming
// the hook perturbs no result over every registered scenario.

// SpecKind identifies what a SpecEvent describes.
type SpecKind uint8

const (
	// SpecFetch: a watched instruction (branch, jump, load, store, or SeMPE
	// marker) entered the machine. Taken/Addr carry the fetch-time
	// prediction (predicted direction and target for control flow).
	SpecFetch SpecKind = iota
	// SpecBPLookup: the branch predictor was consulted at fetch for this op
	// (conditional direction or indirect target). Never emitted for sJMP:
	// secure branches are unpredicted by the SeMPE rule.
	SpecBPLookup
	// SpecIssue: the op left the issue queue for a functional unit.
	SpecIssue
	// SpecBranchExec: a branch or jump resolved at execute. Taken/Addr carry
	// the actual outcome and target; Mispredict is set when the front end
	// went the wrong way.
	SpecBranchExec
	// SpecMemExec: a load computed its address and accessed the DL1 (or
	// forwarded from the store queue), or a store computed its address.
	// Addr is the access address, Lat the observed latency (loads only),
	// Write distinguishes stores.
	SpecMemExec
	// SpecCacheFill: a cache level installed a new line. Addr is the line
	// address, Level the cache level; PC/Seq attribute the fill to the
	// access that triggered it (including prefetches it set off).
	SpecCacheFill
	// SpecCacheEvict: the fill at the same cycle displaced a resident line.
	SpecCacheEvict
	// SpecBPUpdate: the predictor was trained at commit (direction or
	// indirect target). Always carries DispCommitted: only retiring ops
	// train the predictor.
	SpecBPUpdate
	// SpecCommit: the op retired. Retirement is in program order, so it
	// resolves every earlier per-uop event with the same or a lower Seq that
	// no flush squashed to DispCommitted — ALU ops, which emit no SpecCommit
	// of their own, included.
	SpecCommit
	// SpecFlush: the pipeline squashed everything younger than Seq. Cause
	// says why; SquashedROB and DroppedFE count the discarded micro-ops
	// (renamed window vs fetched-but-not-renamed). Resolves every earlier
	// per-uop event with a greater Seq to DispSquashed.
	SpecFlush

	specKindCount
)

var specKindNames = [specKindCount]string{
	"fetch", "bp-lookup", "issue", "branch-exec", "mem-exec",
	"cache-fill", "cache-evict", "bp-update", "commit", "flush",
}

// String returns the stable lower-case name used in trace renderings.
func (k SpecKind) String() string {
	if int(k) < len(specKindNames) {
		return specKindNames[k]
	}
	return "unknown"
}

// SpecDisp is the resolution state of a per-uop event.
type SpecDisp uint8

const (
	// DispSpeculative: in flight; commit or squash has not yet resolved it.
	DispSpeculative SpecDisp = iota
	// DispCommitted: the op retired; this action reached architectural state.
	DispCommitted
	// DispSquashed: the op was flushed; this action was wrong-path work whose
	// microarchitectural side effects (cache fills, predictor state) persist.
	DispSquashed
)

// String returns the stable lower-case name used in trace renderings.
func (d SpecDisp) String() string {
	switch d {
	case DispCommitted:
		return "committed"
	case DispSquashed:
		return "squashed"
	default:
		return "speculative"
	}
}

// FlushCause distinguishes why a pipeline flush happened.
type FlushCause uint8

const (
	// FlushNone: the event is not a flush.
	FlushNone FlushCause = iota
	// FlushMispredict: a branch or jump resolved against its prediction.
	FlushMispredict
	// FlushSecureRedirect: a SeMPE eosJMP's commit-time jump-back into the
	// taken path. Not a misprediction — the redirect is unconditional and
	// secret-independent by design.
	FlushSecureRedirect
	// FlushOverflow: a nesting-overflow-downgraded sJMP resolved taken and
	// redirected like an ordinary branch (Config.OverflowNonSecure).
	FlushOverflow
)

// String returns the stable lower-case name used in trace renderings.
func (f FlushCause) String() string {
	switch f {
	case FlushMispredict:
		return "mispredict"
	case FlushSecureRedirect:
		return "secure-redirect"
	case FlushOverflow:
		return "overflow"
	default:
		return "none"
	}
}

// Cache levels named in SpecCacheFill/SpecCacheEvict events.
const (
	SpecIL1 uint8 = 1
	SpecDL1 uint8 = 2
	SpecL2  uint8 = 3
)

// SpecLevelName names a cache level carried by a fill/evict event.
func SpecLevelName(level uint8) string {
	switch level {
	case SpecIL1:
		return "il1"
	case SpecDL1:
		return "dl1"
	case SpecL2:
		return "l2"
	default:
		return "?"
	}
}

// SpecEvent is one speculative-window observation. The struct is flat and
// pointer-free so rings of them are GC-inert and Record stays allocation-free.
type SpecEvent struct {
	Cycle uint64
	Seq   uint64 // dynamic-instruction sequence number (machine order)
	PC    uint64
	Addr  uint64 // memory address, branch target, or cache line address

	SquashedROB uint32 // SpecFlush: renamed in-flight ops squashed
	DroppedFE   uint32 // SpecFlush: fetched-but-not-renamed ops dropped

	Lat   uint16 // SpecMemExec loads: observed access latency
	Kind  SpecKind
	Disp  SpecDisp
	Cause FlushCause
	Level uint8 // SpecCacheFill/Evict: cache level (SpecIL1/SpecDL1/SpecL2)

	Taken      bool // branch direction (predicted at fetch, actual at exec)
	Mispredict bool
	Write      bool // memory events: store vs load
}

// specDefault is the process-wide default spec watch, captured by New into
// each core and re-read at Reset. It exists for differential testing (arm a
// sink across entire scenario grids, including pooled cores, and diff the
// artifacts); production code arms single cores with SetSpecWatch instead.
// A default sink must be safe for concurrent calls because the trial
// engines run cores on parallel workers.
var specDefault atomic.Value // of specWatchBox

type specWatchBox struct{ fn func(SpecEvent) }

// SetSpecWatchDefault installs fn as the process-wide default spec watch and
// returns the previous default. nil disarms. Cores created by New — and
// pooled cores at their next Reset — pick the default up; a core armed
// explicitly via SetSpecWatch keeps its own hook.
func SetSpecWatchDefault(fn func(SpecEvent)) (old func(SpecEvent)) {
	prev, _ := specDefault.Swap(specWatchBox{fn}).(specWatchBox)
	return prev.fn
}

func loadSpecWatchDefault() func(SpecEvent) {
	box, _ := specDefault.Load().(specWatchBox)
	return box.fn
}

// SetSpecWatch arms (or, with nil, disarms) the execute-time spec watch on
// this core and wires the cache-fill observers that feed SpecCacheFill/Evict
// events. An explicitly armed hook survives Reset, like MemWatch; pass nil to
// return the core to the process default at its next Reset.
func (c *Core) SetSpecWatch(fn func(SpecEvent)) {
	c.specWatch = fn
	c.specFromDefault = false
	c.wireSpecCache()
}

// SpecWatchArmed reports whether a spec watch (explicit or default) is live.
func (c *Core) SpecWatchArmed() bool { return c.specWatch != nil }

// armSpecDefault captures the process default (New and Reset call it when the
// core has no explicitly armed hook).
func (c *Core) armSpecDefault() {
	d := loadSpecWatchDefault()
	c.specWatch = d
	c.specFromDefault = d != nil
	c.wireSpecCache()
}

// wireSpecCache installs or removes the per-level fill observers. The
// closures attribute each fill to the access the core most recently stamped
// into specPC/specSeq (the instruction fetch, load execute, or store commit
// that is running the access — prefetcher-triggered fills inherit the demand
// access that woke the prefetcher).
func (c *Core) wireSpecCache() {
	if c.specWatch == nil {
		c.Hier.IL1.FillWatch = nil
		c.Hier.DL1.FillWatch = nil
		c.Hier.L2.FillWatch = nil
		return
	}
	mk := func(level uint8) func(line, victim uint64, evicted bool) {
		return func(line, victim uint64, evicted bool) {
			c.emitSpec(SpecEvent{Kind: SpecCacheFill, Seq: c.specSeq, PC: c.specPC, Addr: line, Level: level})
			if evicted {
				c.emitSpec(SpecEvent{Kind: SpecCacheEvict, Seq: c.specSeq, PC: c.specPC, Addr: victim, Level: level})
			}
		}
	}
	c.Hier.IL1.FillWatch = mk(SpecIL1)
	c.Hier.DL1.FillWatch = mk(SpecDL1)
	c.Hier.L2.FillWatch = mk(SpecL2)
}

// emitSpec stamps the current cycle and delivers ev to the armed watch.
// Callers have already checked c.specWatch != nil.
func (c *Core) emitSpec(ev SpecEvent) {
	ev.Cycle = c.cycle
	c.specEmitted++
	c.specWatch(ev)
}

// specWatched reports whether a micro-op's class is covered by the spec
// event stream: control flow, memory, and the SeMPE markers. Straight-line
// ALU work is not traced — it has no microarchitecturally observable side
// channel in this model — which keeps armed traces proportional to the
// interesting activity.
func specWatched(u *uop) bool {
	if u.isSJmp || u.isEOSJmp {
		return true
	}
	return u.cl == isa.ClassBranch || u.cl == isa.ClassJump || u.isLoad || u.isStore
}

// SpecCounters aggregates the process-wide run, wrong-path and decode-cache
// accounting published by every Run (and harvested by the obs scrape
// families and attack.PerfSnapshot). The counters are always on — they are
// plain Stats and SBStats increments, never dependent on a spec watch being
// armed. They count simulated work: a core Fork copies its source's
// published base, so a forked run adds only the clocks and instructions it
// simulated after the fork.
type SpecCounters struct {
	Runs          uint64 // Run and RunToFork calls that ended other than at a fork stop
	Insts         uint64 // committed instructions
	Cycles        uint64 // simulated clocks, skipped ones included
	SkippedCycles uint64 // clocks skipIdle jumped over

	WrongPathFetches  uint64 // fetched micro-ops discarded without committing
	SquashedUops      uint64 // renamed, in-flight micro-ops squashed by flushes
	FlushMispredicts  uint64
	FlushSecRedirects uint64
	FlushOverflows    uint64
	SpecEvents        uint64 // SpecEvents delivered to armed watches
	// The decode cache's SuperblockStats: instructions decoded, micro-ops
	// fetched by replay, and the wrong-path slices of both
	// (SBWrongPathReplays equals WrongPathFetches).
	SBBuilds           uint64
	SBReplays          uint64
	SBWrongPathBuilds  uint64
	SBWrongPathReplays uint64
}

// specCounterCount is the number of SpecCounters fields.
const specCounterCount = 14

// values lists the counters in declaration order, the order of specTotals.
func (s SpecCounters) values() [specCounterCount]uint64 {
	return [specCounterCount]uint64{s.Runs, s.Insts, s.Cycles, s.SkippedCycles,
		s.WrongPathFetches, s.SquashedUops, s.FlushMispredicts,
		s.FlushSecRedirects, s.FlushOverflows, s.SpecEvents,
		s.SBBuilds, s.SBReplays, s.SBWrongPathBuilds, s.SBWrongPathReplays}
}

// specTotals are the process-wide SpecCounters, field by field.
var specTotals [specCounterCount]atomic.Uint64

// GlobalSpecCounters returns the process-wide totals accumulated across
// every completed Run (scrape-time read; see internal/attack/obs.go for the
// metric families built on it).
func GlobalSpecCounters() SpecCounters {
	var v [specCounterCount]uint64
	for i := range v {
		v[i] = specTotals[i].Load()
	}
	return SpecCounters{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10], v[11], v[12], v[13]}
}

// publishSpecCounters adds this core's not-yet-published deltas to the
// process-wide totals; ended reports that the run ended other than at a
// fork stop, which counts it in Runs. Run defers it so partial runs (cycle
// budget, watchdog) still publish; the delta bookkeeping makes it
// idempotent and Reset re-bases it with the Stats and SBStats wipe.
func (c *Core) publishSpecCounters(ended bool) {
	cur := SpecCounters{
		Insts:              c.Stats.Insts,
		Cycles:             c.Stats.Cycles,
		SkippedCycles:      c.skipped,
		WrongPathFetches:   c.Stats.WrongPathFetches,
		SquashedUops:       c.Stats.SquashedUops,
		FlushMispredicts:   c.Stats.FlushMispredicts,
		FlushSecRedirects:  c.Stats.FlushSecRedirects,
		FlushOverflows:     c.Stats.FlushOverflows,
		SpecEvents:         c.specEmitted,
		SBBuilds:           c.SBStats.Builds,
		SBReplays:          c.SBStats.Replays,
		SBWrongPathBuilds:  c.SBStats.WrongPathBuilds,
		SBWrongPathReplays: c.SBStats.WrongPathReplays,
	}
	if ended {
		cur.Runs = 1
	}
	if cur != c.specPub {
		now, pub := cur.values(), c.specPub.values()
		for i := range now {
			if d := now[i] - pub[i]; d != 0 {
				specTotals[i].Add(d)
			}
		}
	}
	c.specPub = cur
}
