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

// fig10SpecOf parses an engine spec: the default (or quick) grid with
// per-parameter overrides.
func fig10SpecOf(spec scenario.Spec) (Fig10Spec, error) {
	f := DefaultFig10Spec()
	if spec.Quick {
		f = QuickFig10Spec()
	}
	return f, firstErr(
		checkParams(spec, "kinds", "ws", "iters", "secret"),
		param(spec, "kinds", &f.Kinds, listOf(workloads.Parse)),
		param(spec, "ws", &f.Ws, listOf(atoi)),
		param(spec, "iters", &f.Iters, atoi),
		param(spec, "secret", &f.Secret, atou),
	)
}

func (f Fig10Spec) plan() (*scenario.Plan, error) {
	if err := firstErr(
		inRange("ws", 1, compile.MaxSecretNesting, f.Ws...),
		inRange("iters", 1, workloads.MaxIters, f.Iters),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "workload", Values: mapSlice(f.Kinds, workloads.Kind.String)},
			{Name: "W", Values: mapSlice(f.Ws, strconv.Itoa)},
		},
		Point: func(p scenario.Point) (any, error) {
			return fig10Point(f, f.Kinds[p.Coords[0]], f.Ws[p.Coords[1]])
		},
	}, nil
}

// fig10Sweep is the microbenchmark grid shared by fig10a, fig10b, and
// table1.
var fig10Sweep = &scenario.Sweep{
	ID:        "fig10",
	Plan:      planOf(fig10SpecOf),
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
