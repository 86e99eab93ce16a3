package experiments

import (
	"fmt"
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
	Kind    workloads.Kind
	W       int // nesting depth of the kernel harness
	Iters   int
	Slots   []int
	Bws     []int
	Workers int
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
	if err := checkParams(spec, "kind", "w", "iters", "slots", "bws"); err != nil {
		return AblationSpec{}, err
	}
	f := DefaultAblationSpec()
	if spec.Quick {
		f = QuickAblationSpec()
	}
	var err error
	if v, ok := spec.Params["kind"]; ok {
		if f.Kind, err = workloads.Parse(v); err != nil {
			return AblationSpec{}, fmt.Errorf("kind: %w", err)
		}
	}
	if v, ok := spec.Params["w"]; ok {
		if f.W, err = strconv.Atoi(v); err != nil {
			return AblationSpec{}, fmt.Errorf("w: %w", err)
		}
	}
	if v, ok := spec.Params["iters"]; ok {
		if f.Iters, err = strconv.Atoi(v); err != nil {
			return AblationSpec{}, fmt.Errorf("iters: %w", err)
		}
	}
	if v, ok := spec.Params["slots"]; ok {
		if f.Slots, err = parseInts(v); err != nil {
			return AblationSpec{}, fmt.Errorf("slots: %w", err)
		}
	}
	if v, ok := spec.Params["bws"]; ok {
		if f.Bws, err = parseInts(v); err != nil {
			return AblationSpec{}, fmt.Errorf("bws: %w", err)
		}
	}
	if err := positive("w", f.W); err != nil {
		return AblationSpec{}, err
	}
	if err := atMost("w", compile.MaxSecretNesting, f.W); err != nil {
		return AblationSpec{}, err
	}
	if err := positive("iters", f.Iters); err != nil {
		return AblationSpec{}, err
	}
	if err := positive("slots", f.Slots...); err != nil {
		return AblationSpec{}, err
	}
	if err := positive("bws", f.Bws...); err != nil {
		return AblationSpec{}, err
	}
	f.Workers = spec.Workers
	return f, nil
}

var ablationSweep = &scenario.Sweep{
	ID: "ablation",
	Axes: func(spec scenario.Spec) ([]scenario.Axis, error) {
		f, err := ablationSpecOf(spec)
		if err != nil {
			return nil, err
		}
		slots := make([]string, len(f.Slots))
		for i, s := range f.Slots {
			slots[i] = strconv.Itoa(s)
		}
		bws := make([]string, len(f.Bws))
		for i, b := range f.Bws {
			bws[i] = strconv.Itoa(b)
		}
		return []scenario.Axis{
			{Name: "slots", Values: slots},
			{Name: "bandwidth", Values: bws},
		}, nil
	},
	Run: func(spec scenario.Spec, p scenario.Point) (any, error) {
		f, err := ablationSpecOf(spec)
		if err != nil {
			return nil, err
		}
		return ablationPoint(f, f.Slots[p.Coords[0]], f.Bws[p.Coords[1]])
	},
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

// Ablation runs the SPM geometry grid through the engine sweep.
func Ablation(spec AblationSpec) ([]AblationRow, error) {
	rows, err := scenario.SweepRows(ablationSweep, spec.engineSpec(), scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return ablationRows(rows), nil
}

func (f AblationSpec) engineSpec() scenario.Spec {
	return scenario.Spec{
		Workers: f.Workers,
		Params: map[string]string{
			"kind":  f.Kind.String(),
			"w":     strconv.Itoa(f.W),
			"iters": strconv.Itoa(f.Iters),
			"slots": intsCSV(f.Slots),
			"bws":   intsCSV(f.Bws),
		},
	}
}

func ablationRows(rows []any) []AblationRow {
	out := make([]AblationRow, len(rows))
	for i, r := range rows {
		out[i] = r.(AblationRow)
	}
	return out
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
