package leak

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Speculative-window observables. The Observation channels in this package
// compare everything an attacker sees through *architectural* effects —
// committed streams, final predictor and cache state, total timing. The
// transient window is a different threat surface: wrong-path work never
// commits, yet its microarchitectural side effects (cache fills, executed
// addresses) are exactly what Spectre-class attacks read back. A
// SpecObservation captures that surface from the pipeline's spec-event
// stream: the set of addresses and branches the core touched *and then
// squashed*, per run — so a test can say "the wrong-path touch set depends
// on the secret" on the baseline and "it doesn't exist" under SeMPE.

// SpecObservation is one run's wrong-path footprint.
type SpecObservation struct {
	// WrongPathLoads/WrongPathStores are the sorted, de-duplicated memory
	// addresses accessed at execute by micro-ops that were later squashed.
	WrongPathLoads  []uint64
	WrongPathStores []uint64
	// WrongPathBranches are the sorted, de-duplicated PCs of control-flow
	// micro-ops that executed and were later squashed.
	WrongPathBranches []uint64
	// WrongPathFills are the sorted, de-duplicated cache-line addresses
	// installed (at any level) by accesses attributed to squashed micro-ops
	// — the classic transient cache-pollution channel.
	WrongPathFills []uint64

	// Counter view (always-on pipeline accounting for this run).
	WrongPathFetches  uint64
	SquashedUops      uint64
	FlushMispredicts  uint64
	FlushSecRedirects uint64
	FlushOverflows    uint64

	Events  uint64 // spec events recorded
	Dropped uint64 // events that fell off the tracer ring
}

// specTraceCap bounds the per-run tracer ring. Wrong-path activity in the
// distinguisher programs is tiny compared to this; Dropped reports overflow.
const specTraceCap = 1 << 16

// ObserveSpec runs prog to completion on a fresh core with a spec-window
// tracer armed and returns the wrong-path footprint alongside the core
// (commit-trace capture is enabled, so core.CommitPCs/MemTrace hold the
// architectural streams for contrast). Arming the tracer does not perturb
// the run, and fetch stays on the superblock replay engine every sweep
// uses: the spec hooks are cycle-inert by construction, which
// TestSpecTraceDifferential pins across every registered scenario.
func ObserveSpec(cfg pipeline.Config, prog *isa.Program) (SpecObservation, *pipeline.Core, error) {
	tr := pipeline.NewTracer(specTraceCap)
	core := pipeline.New(cfg, prog)
	core.TraceCommits = true
	core.SetSpecWatch(tr.Record)
	if err := core.Run(); err != nil {
		return SpecObservation{}, nil, err
	}
	so := specObservationOf(tr)
	so.WrongPathFetches = core.Stats.WrongPathFetches
	so.SquashedUops = core.Stats.SquashedUops
	so.FlushMispredicts = core.Stats.FlushMispredicts
	so.FlushSecRedirects = core.Stats.FlushSecRedirects
	so.FlushOverflows = core.Stats.FlushOverflows
	return so, core, nil
}

func specObservationOf(tr *pipeline.Tracer) SpecObservation {
	loads := map[uint64]bool{}
	stores := map[uint64]bool{}
	branches := map[uint64]bool{}
	fills := map[uint64]bool{}
	for _, ev := range tr.Events() {
		if ev.Disp != pipeline.DispSquashed {
			continue
		}
		switch ev.Kind {
		case pipeline.SpecMemExec:
			if ev.Write {
				stores[ev.Addr] = true
			} else {
				loads[ev.Addr] = true
			}
		case pipeline.SpecBranchExec:
			branches[ev.PC] = true
		case pipeline.SpecCacheFill:
			fills[ev.Addr] = true
		}
	}
	return SpecObservation{
		WrongPathLoads:    sortedKeys(loads),
		WrongPathStores:   sortedKeys(stores),
		WrongPathBranches: sortedKeys(branches),
		WrongPathFills:    sortedKeys(fills),
		Events:            tr.Total(),
		Dropped:           tr.Dropped(),
	}
}

func sortedKeys(m map[uint64]bool) []uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TouchSetsEqual reports whether two runs' wrong-path touch sets are
// identical — the spec-window analogue of "no channel distinguishes".
func TouchSetsEqual(a, b SpecObservation) bool {
	return equalU64(a.WrongPathLoads, b.WrongPathLoads) &&
		equalU64(a.WrongPathStores, b.WrongPathStores) &&
		equalU64(a.WrongPathBranches, b.WrongPathBranches) &&
		equalU64(a.WrongPathFills, b.WrongPathFills)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ContainsAddr reports whether addr is in the sorted set.
func ContainsAddr(set []uint64, addr uint64) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= addr })
	return i < len(set) && set[i] == addr
}
