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

// Fig10Row is one (kernel, W) point of Fig. 10.
type Fig10Row struct {
	Kind        workloads.Kind
	W           int
	BaseCycles  uint64
	SeMPECycles uint64
	CTECycles   uint64
	// Slowdowns relative to the unprotected baseline (Fig. 10a).
	SeMPESlowdown float64
	CTESlowdown   float64
	// Ideal slowdown = sum of all branch-path times / baseline ≈ W+1
	// (paper §IV-A); Fig. 10b normalizes to it.
	Ideal float64
}

// Fig10Spec parameterizes the microbenchmark sweep.
type Fig10Spec struct {
	Kinds  []workloads.Kind
	Ws     []int
	Iters  int
	Secret uint64 // baseline input; 0 = fall through to the last path

	// Workers bounds the goroutine pool the sweep fans out over; each
	// (kernel, W) point runs on its own Core, so results are identical to a
	// serial sweep. <= 1 runs serially.
	Workers int
}

// DefaultFig10Spec covers the paper's full W axis.
func DefaultFig10Spec() Fig10Spec {
	return Fig10Spec{
		Kinds: workloads.All(),
		Ws:    []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Iters: 8,
	}
}

// QuickFig10Spec is the reduced sweep (-quick): the W axis endpoints plus
// one midpoint, at half the iterations.
func QuickFig10Spec() Fig10Spec {
	s := DefaultFig10Spec()
	s.Ws = []int{1, 4, 10}
	s.Iters = 4
	return s
}

// fig10SpecOf decodes an engine spec: the default (or quick) grid with
// per-parameter overrides.
func fig10SpecOf(spec scenario.Spec) (Fig10Spec, error) {
	if err := checkParams(spec, "kinds", "ws", "iters", "secret"); err != nil {
		return Fig10Spec{}, err
	}
	f := DefaultFig10Spec()
	if spec.Quick {
		f = QuickFig10Spec()
	}
	var err error
	if v, ok := spec.Params["kinds"]; ok {
		if f.Kinds, err = parseKinds(v); err != nil {
			return Fig10Spec{}, fmt.Errorf("kinds: %w", err)
		}
	}
	if v, ok := spec.Params["ws"]; ok {
		if f.Ws, err = parseInts(v); err != nil {
			return Fig10Spec{}, fmt.Errorf("ws: %w", err)
		}
	}
	if v, ok := spec.Params["iters"]; ok {
		if f.Iters, err = strconv.Atoi(v); err != nil {
			return Fig10Spec{}, fmt.Errorf("iters: %w", err)
		}
	}
	if v, ok := spec.Params["secret"]; ok {
		if f.Secret, err = strconv.ParseUint(v, 10, 64); err != nil {
			return Fig10Spec{}, fmt.Errorf("secret: %w", err)
		}
	}
	if err := positive("ws", f.Ws...); err != nil {
		return Fig10Spec{}, err
	}
	if err := atMost("ws", compile.MaxSecretNesting, f.Ws...); err != nil {
		return Fig10Spec{}, err
	}
	if err := positive("iters", f.Iters); err != nil {
		return Fig10Spec{}, err
	}
	f.Workers = spec.Workers
	return f, nil
}

// engineSpec encodes the typed spec as engine parameters — the inverse of
// fig10SpecOf, so typed callers and registry clients share one sweep path.
func (f Fig10Spec) engineSpec() scenario.Spec {
	return scenario.Spec{
		Workers: f.Workers,
		Params: map[string]string{
			"kinds":  kindNames(f.Kinds),
			"ws":     intsCSV(f.Ws),
			"iters":  strconv.Itoa(f.Iters),
			"secret": strconv.FormatUint(f.Secret, 10),
		},
	}
}

// fig10Sweep is the microbenchmark grid shared by fig10a, fig10b, and
// table1.
var fig10Sweep = &scenario.Sweep{
	ID: "fig10",
	Axes: func(spec scenario.Spec) ([]scenario.Axis, error) {
		f, err := fig10SpecOf(spec)
		if err != nil {
			return nil, err
		}
		kinds := make([]string, len(f.Kinds))
		for i, k := range f.Kinds {
			kinds[i] = k.String()
		}
		ws := make([]string, len(f.Ws))
		for i, w := range f.Ws {
			ws[i] = strconv.Itoa(w)
		}
		return []scenario.Axis{
			{Name: "workload", Values: kinds},
			{Name: "W", Values: ws},
		}, nil
	},
	Run: func(spec scenario.Spec, p scenario.Point) (any, error) {
		f, err := fig10SpecOf(spec)
		if err != nil {
			return nil, err
		}
		return fig10Point(f, f.Kinds[p.Coords[0]], f.Ws[p.Coords[1]])
	},
	DecodeRow: decodeRowAs[Fig10Row],
}

// fig10Point measures one (kernel, W) point: the baseline binary on the
// unprotected core, the SeMPE binary on the secure core, and the
// hand-written constant-time program on the unprotected core.
func fig10Point(spec Fig10Spec, kind workloads.Kind, w int) (Fig10Row, error) {
	hs := workloads.HarnessSpec{Kind: kind, W: w, I: spec.Iters, Secret: spec.Secret}
	structured := workloads.Harness(hs)
	base, err := mustRun(pipeline.DefaultConfig(), structured, compile.Plain)
	if err != nil {
		return Fig10Row{}, fmt.Errorf("fig10 %v W=%d base: %w", kind, w, err)
	}
	sec, err := mustRun(pipeline.SecureConfig(), structured, compile.SeMPE)
	if err != nil {
		return Fig10Row{}, fmt.Errorf("fig10 %v W=%d sempe: %w", kind, w, err)
	}
	cte, err := mustRun(pipeline.DefaultConfig(), workloads.HarnessCT(hs), compile.Plain)
	if err != nil {
		return Fig10Row{}, fmt.Errorf("fig10 %v W=%d cte: %w", kind, w, err)
	}
	row := Fig10Row{
		Kind:        kind,
		W:           w,
		BaseCycles:  base.Stats.Cycles,
		SeMPECycles: sec.Stats.Cycles,
		CTECycles:   cte.Stats.Cycles,
		Ideal:       float64(w + 1),
	}
	row.SeMPESlowdown = float64(sec.Stats.Cycles) / float64(base.Stats.Cycles)
	row.CTESlowdown = float64(cte.Stats.Cycles) / float64(base.Stats.Cycles)
	releaseCore(pipeline.DefaultConfig(), base)
	releaseCore(pipeline.SecureConfig(), sec)
	releaseCore(pipeline.DefaultConfig(), cte)
	return row, nil
}

// Fig10 measures every (kernel, W) point of the spec through the engine
// sweep.
func Fig10(spec Fig10Spec) ([]Fig10Row, error) {
	rows, err := scenario.SweepRows(fig10Sweep, spec.engineSpec(), scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return fig10Rows(rows), nil
}

func fig10Rows(rows []any) []Fig10Row {
	out := make([]Fig10Row, len(rows))
	for i, r := range rows {
		out[i] = r.(Fig10Row)
	}
	return out
}

// RenderFig10a renders the slowdown-vs-baseline series (log-scale plot in
// the paper; we print the series values).
func RenderFig10a(rows []Fig10Row) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 10a: execution-time slowdown vs. baseline (SeMPE solid, FaCT/CTE dashed)",
		Header: []string{"workload", "W", "SeMPE", "CTE(FaCT)", "CTE/SeMPE"},
	}
	for _, r := range rows {
		t.AddRow(r.Kind.String(), fmt.Sprintf("%d", r.W),
			stats.Ratio(r.SeMPESlowdown), stats.Ratio(r.CTESlowdown),
			stats.Ratio(r.CTESlowdown/r.SeMPESlowdown))
	}
	t.AddNote("paper: SeMPE 8.4-10.6x at W=10 (≈ the W+1 branch paths); CTE 3-32x at W=1, 12.9-187.3x at W=10; CTE up to 18x slower than SeMPE")
	return t
}

// RenderFig10b renders the slowdown normalized to the ideal (sum of all
// branch-path execution times).
func RenderFig10b(rows []Fig10Row) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 10b: average slowdown normalized to ideal (= sum of all path times ≈ W+1)",
		Header: []string{"workload", "W", "SeMPE/ideal", "CTE/ideal"},
	}
	for _, r := range rows {
		t.AddRow(r.Kind.String(), fmt.Sprintf("%d", r.W),
			stats.Float(r.SeMPESlowdown/r.Ideal, 2),
			stats.Float(r.CTESlowdown/r.Ideal, 2))
	}
	t.AddNote("paper: SeMPE sits at or slightly below 1.0 (prefetching effect); CTE grows super-linearly above it")
	return t
}
