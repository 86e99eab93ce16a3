// Package pipeline implements a cycle-level out-of-order processor core with
// optional SeMPE secure multi-path execution. The microarchitecture follows
// the paper's Table II baseline (Haswell-like widths, 192-entry ROB, 256
// physical registers, TAGE/ITTAGE prediction, 3-level cache hierarchy,
// stride/stream prefetching) and layers the SeMPE mechanisms on top: the
// jbTable LIFO, pipeline drains around SecBlocks, ArchRS register snapshots
// in the scratchpad memory, and commit-time eosJMP redirection.
package pipeline

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// Config describes the simulated core. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Widths (instructions or micro-ops per cycle).
	FetchWidth  int
	DecodeWidth int
	RenameWidth int
	IssueWidth  int
	RetireWidth int

	// Structure capacities.
	ROBSize      int
	IQSize       int
	LQSize       int
	SQSize       int
	PhysRegs     int
	FetchBufSize int
	DecodeQSize  int

	// Functional units available per cycle.
	NumALU    int
	NumMulDiv int
	NumLoad   int // "load issue" ports in Table II
	NumStore  int
	NumBranch int

	// Latencies in cycles.
	LatALU    int
	LatMul    int
	LatDiv    int
	LatBranch int
	LatAGU    int

	// RedirectPenalty is charged on every front-end redirect (branch
	// misprediction or eosJMP jump-back) on top of the natural refill time.
	RedirectPenalty int

	// SeMPE enables secure multi-path execution. When false the core is the
	// unprotected baseline: SecPrefix bytes are decoded and ignored, which is
	// the paper's backward-compatibility story.
	SeMPE bool

	// SPM configures the snapshot scratchpad (SeMPE only).
	SPM mem.SPMConfig

	// OverflowNonSecure selects the paper's permissive policy for secure
	// nesting beyond the SPM snapshot slots (§IV-E): instead of raising a
	// runtime exception, the offending sJMP executes as an ordinary
	// single-path branch (no protection) and its eosJMP degenerates to a
	// NOP. Default false: overflow is an error.
	OverflowNonSecure bool

	// Caches configures the three-level hierarchy.
	Caches cache.HierarchyConfig

	// StridePrefetchTable/Degree configure the DL1 stride prefetcher;
	// StreamWindow/Depth configure the L2 stream prefetcher. Zero disables.
	StridePrefetchTable  int
	StridePrefetchDegree int
	StreamWindow         int
	StreamDepth          int

	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles uint64
	// WatchdogCycles aborts when no instruction commits for this many
	// cycles, which indicates a simulator or program deadlock.
	WatchdogCycles uint64
}

// DefaultConfig mirrors the paper's Table II baseline model.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		RenameWidth: 8,
		IssueWidth:  8,
		RetireWidth: 12,

		ROBSize:      192,
		IQSize:       60,
		LQSize:       32,
		SQSize:       32,
		PhysRegs:     256,
		FetchBufSize: 16,
		DecodeQSize:  16,

		NumALU:    4,
		NumMulDiv: 2,
		NumLoad:   2,
		NumStore:  2,
		NumBranch: 2,

		LatALU:    1,
		LatMul:    3,
		LatDiv:    12,
		LatBranch: 1,
		LatAGU:    1,

		RedirectPenalty: 3,

		SeMPE: false,
		SPM:   mem.DefaultSPMConfig(),

		Caches: cache.DefaultHierarchyConfig(),

		StridePrefetchTable:  64,
		StridePrefetchDegree: 2,
		StreamWindow:         16,
		StreamDepth:          2,

		MaxCycles:      0,
		WatchdogCycles: 2_000_000,
	}
}

// SecureConfig returns the Table II model with SeMPE enabled.
func SecureConfig() Config {
	cfg := DefaultConfig()
	cfg.SeMPE = true
	return cfg
}

// Stats aggregates everything the evaluation section reports.
type Stats struct {
	Cycles uint64
	Insts  uint64 // committed instructions

	Branches          uint64 // committed conditional branches (incl. sJMP)
	BranchMispredicts uint64
	IndirectJumps     uint64
	Flushes           uint64

	SJmps            uint64 // committed secure jumps
	EOSJmps          uint64 // committed eosJMP markers
	SecRedirects     uint64 // jump-backs into taken paths
	DrainStallCycles uint64 // rename stalled waiting for ROB drain
	SPMStallCycles   uint64 // retire/fetch stalled on SPM traffic
	MaxNestDepth     int
	NestOverflows    uint64 // secure regions downgraded to non-secure

	FetchStallCycles uint64 // front-end stalled on IL1 misses or redirects
	LoadForwards     uint64 // store-to-load forwards

	// Wrong-path accounting (always on; see spec.go). Invariants pinned by
	// tests: FlushMispredicts+FlushOverflows == Flushes, and
	// FlushSecRedirects == SecRedirects. Artifact rows never serialize these
	// (they pick individual fields), so adding them cannot move golden JSON.
	WrongPathFetches  uint64 // fetched micro-ops discarded without committing
	SquashedUops      uint64 // renamed in-flight micro-ops squashed by flushes
	FlushMispredicts  uint64 // flushAfter calls caused by mispredictions
	FlushSecRedirects uint64 // eosJMP commit-time jump-back redirects
	FlushOverflows    uint64 // overflow-downgraded sJMPs that redirected
}

// CPI returns cycles per committed instruction.
func (s Stats) CPI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Insts)
}
