package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/compile"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// AblationRow is one (jbTable depth, SPM bandwidth) point of the SPM
// geometry ablation named in the ROADMAP: the secure core re-simulated
// with the scratchpad's slot count (which is also the jbTable's depth —
// the core sizes both from SPM.Slots) and its save/restore bandwidth
// swept, against the fixed unprotected baseline.
type AblationRow struct {
	Slots       int
	Bandwidth   int // bytes per cycle
	BaseCycles  uint64
	SeMPECycles uint64
	Slowdown    float64 // SeMPE / unprotected baseline
	// SPMStallCycles is how long retire/fetch sat waiting on snapshot
	// traffic — the quantity the bandwidth axis moves.
	SPMStallCycles uint64
	// NestOverflows counts secure regions downgraded to ordinary branches
	// because nesting exceeded the slots (§IV-E's permissive policy) — the
	// quantity the depth axis moves. A downgraded region is UNPROTECTED.
	NestOverflows uint64
	MaxNestDepth  int
}

// AblationSpec parameterizes the ablation: one deeply nested kernel run
// across the SPM geometry grid.
type AblationSpec struct {
	Kind  workloads.Kind
	W     int // nesting depth of the kernel harness
	Iters int
	Slots []int
	Bws   []int
}

// DefaultAblationSpec sweeps slot counts from starved (2) to the paper's
// Table II figure (30) against bandwidths around the 64 B/cycle default,
// on the fibonacci kernel at a depth that overflows the small geometries.
func DefaultAblationSpec() AblationSpec {
	return AblationSpec{
		Kind:  workloads.Fibonacci,
		W:     8,
		Iters: 4,
		Slots: []int{2, 4, 8, 16, 30},
		Bws:   []int{8, 16, 32, 64, 128},
	}
}

// QuickAblationSpec is the reduced grid: geometry corners only.
func QuickAblationSpec() AblationSpec {
	s := DefaultAblationSpec()
	s.Slots = []int{2, 30}
	s.Bws = []int{16, 64}
	s.Iters = 2
	return s
}

func ablationSpecOf(spec scenario.Spec) (AblationSpec, error) {
	f := DefaultAblationSpec()
	if spec.Quick {
		f = QuickAblationSpec()
	}
	return f, firstErr(
		checkParams(spec, "kind", "w", "iters", "slots", "bws"),
		param(spec, "kind", &f.Kind, workloads.Parse),
		param(spec, "w", &f.W, atoi),
		param(spec, "iters", &f.Iters, atoi),
		param(spec, "slots", &f.Slots, listOf(atoi)),
		param(spec, "bws", &f.Bws, listOf(atoi)),
	)
}

// plan bounds slots at the deepest nesting a compiled program can have;
// bandwidth has no upper end (a wider SPM only shortens snapshots).
func (f AblationSpec) plan() (*scenario.Plan, error) {
	if err := firstErr(
		inRange("w", 1, compile.MaxSecretNesting, f.W),
		inRange("iters", 1, workloads.MaxIters, f.Iters),
		inRange("slots", 1, compile.MaxSecretNesting, f.Slots...),
		inRange("bws", 1, math.MaxInt, f.Bws...),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "slots", Values: mapSlice(f.Slots, strconv.Itoa)},
			{Name: "bandwidth", Values: mapSlice(f.Bws, strconv.Itoa)},
		},
		Point: func(p scenario.Point) (any, error) {
			return ablationPoint(f, f.Slots[p.Coords[0]], f.Bws[p.Coords[1]])
		},
	}, nil
}

var ablationSweep = &scenario.Sweep{
	ID:        "ablation",
	Plan:      planOf(ablationSpecOf),
	DecodeRow: decodeRowAs[AblationRow],
}

// ablationPoint simulates one SPM geometry. Overflow runs under the
// paper's permissive §IV-E policy (downgrade to an ordinary branch)
// instead of erroring, so geometries too small for the kernel's nesting
// still produce a row — with NestOverflows counting the unprotected
// regions.
func ablationPoint(spec AblationSpec, slots, bw int) (AblationRow, error) {
	hs := workloads.HarnessSpec{Kind: spec.Kind, W: spec.W, I: spec.Iters}
	structured := workloads.Harness(hs)
	base, err := mustRun(pipeline.DefaultConfig(), structured, compile.Plain)
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation slots=%d bw=%d base: %w", slots, bw, err)
	}
	cfg := pipeline.SecureConfig()
	cfg.SPM.Slots = slots
	cfg.SPM.Bandwidth = bw
	cfg.OverflowNonSecure = true
	sec, err := mustRun(cfg, structured, compile.SeMPE)
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation slots=%d bw=%d sempe: %w", slots, bw, err)
	}
	row := AblationRow{
		Slots:          slots,
		Bandwidth:      bw,
		BaseCycles:     base.Stats.Cycles,
		SeMPECycles:    sec.Stats.Cycles,
		Slowdown:       float64(sec.Stats.Cycles) / float64(base.Stats.Cycles),
		SPMStallCycles: sec.Stats.SPMStallCycles,
		NestOverflows:  sec.Stats.NestOverflows,
		MaxNestDepth:   sec.Stats.MaxNestDepth,
	}
	releaseCore(pipeline.DefaultConfig(), base)
	releaseCore(cfg, sec)
	return row, nil
}

// RenderAblation renders the geometry grid with the two effects the axes
// isolate: snapshot-traffic stalls (bandwidth) and unprotected overflow
// downgrades (depth).
func RenderAblation(spec scenario.Spec, rows []AblationRow) *stats.Table {
	f, _ := ablationSpecOf(spec)
	t := &stats.Table{
		Title: fmt.Sprintf("SPM geometry ablation: jbTable depth x bandwidth (%s, W=%d, I=%d)",
			f.Kind, f.W, f.Iters),
		Header: []string{"slots", "B/cyc", "base cycles", "SeMPE cycles", "slowdown", "SPM stalls", "overflows", "max nest"},
	}
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.Slots), strconv.Itoa(r.Bandwidth),
			stats.Int(r.BaseCycles), stats.Int(r.SeMPECycles), stats.Ratio(r.Slowdown),
			stats.Int(r.SPMStallCycles), stats.Int(r.NestOverflows),
			strconv.Itoa(r.MaxNestDepth))
	}
	t.AddNote("Table II baseline geometry: 30 slots, 64 B/cycle; overflow rows run §IV-E's permissive downgrade, so every overflow is an UNPROTECTED region")
	return t
}
