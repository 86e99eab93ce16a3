package experiments

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Table1 reproduces the qualitative comparison of approaches, substituting
// this repository's measured worst-case overheads for CTE and SeMPE (the
// GhostRider and Raccoon columns quote the numbers reported in the paper,
// as the paper itself does).
func Table1(rows []Fig10Row) *stats.Table {
	worstSeMPE, worstCTE := 0.0, 0.0
	for _, r := range rows {
		if r.SeMPESlowdown > worstSeMPE {
			worstSeMPE = r.SeMPESlowdown
		}
		if r.CTESlowdown > worstCTE {
			worstCTE = r.CTESlowdown
		}
	}
	t := &stats.Table{
		Title:  "Table I: comparing approaches to eliminate SDBCB",
		Header: []string{"aspect", "CTE", "GhostRider", "Raccoon", "SeMPE"},
	}
	t.AddRow("approach", "elim. cond. branch", "equalize path", "execute both paths", "execute both paths")
	t.AddRow("technique", "SW", "HW/SW", "SW", "HW/SW")
	t.AddRow("programming complexity", "High", "Low", "Low", "Low")
	t.AddRow("overheads (paper)", "187.3x", "1987x", "452x", "10.6x")
	t.AddRow("overheads (measured here)", stats.Ratio(worstCTE), "n/a", "n/a", stats.Ratio(worstSeMPE))
	t.AddRow("simple architecture", "Yes", "No", "Yes", "Yes")
	t.AddRow("backward compatible", "Yes", "No", "No", "Yes")
	t.AddNote("measured values are the worst case over the Fig. 10 sweep on this repository's simulator")
	return t
}

// Table2 echoes the simulated baseline configuration and checks it against
// the paper's Table II values.
func Table2() *stats.Table {
	cfg := pipeline.DefaultConfig()
	t := &stats.Table{
		Title:  "Table II: baseline microarchitecture model",
		Header: []string{"parameter", "value", "paper"},
	}
	t.AddRow("fetch", fmt.Sprintf("%d instructions/cycle", cfg.FetchWidth), "8")
	t.AddRow("decode", fmt.Sprintf("%d uops/cycle", cfg.DecodeWidth), "8")
	t.AddRow("rename", fmt.Sprintf("%d uops/cycle", cfg.RenameWidth), "8")
	t.AddRow("issue", fmt.Sprintf("%d uops/cycle", cfg.IssueWidth), "8")
	t.AddRow("load issue", fmt.Sprintf("%d loads/cycle", cfg.NumLoad), "2")
	t.AddRow("retire", fmt.Sprintf("%d uops/cycle", cfg.RetireWidth), "12")
	t.AddRow("reorder buffer", fmt.Sprintf("%d uops", cfg.ROBSize), "192")
	t.AddRow("physical registers", fmt.Sprintf("%d INT", cfg.PhysRegs), "256 INT, 256 FP")
	t.AddRow("issue buffers", fmt.Sprintf("%d uops", cfg.IQSize), "60 INT / 60 FP")
	t.AddRow("load/store queue", fmt.Sprintf("%d+%d entries", cfg.LQSize, cfg.SQSize), "32+32")
	t.AddRow("branch predictor", "TAGE ~31KB, ITTAGE ~6KB", "31KB TAGE, 6KB ITTAGE")
	t.AddRow("DL1 cache", fmt.Sprintf("%dKB, %d-way", cfg.Caches.DL1.SizeBytes>>10, cfg.Caches.DL1.Ways), "32KB, 2-way")
	t.AddRow("IL1 cache", fmt.Sprintf("%dKB, %d-way", cfg.Caches.IL1.SizeBytes>>10, cfg.Caches.IL1.Ways), "16KB, 2-way")
	t.AddRow("L2 cache", fmt.Sprintf("%dKB, %d-way", cfg.Caches.L2.SizeBytes>>10, cfg.Caches.L2.Ways), "256KB, 2-way")
	t.AddRow("prefetcher", "stride (DL1), stream (L2)", "stride (L1), stream (L2)")
	t.AddRow("SPM", fmt.Sprintf("%d snapshots, %d B/cycle", cfg.SPM.Slots, cfg.SPM.Bandwidth), "216KB / 30 snapshots, 64 B/cycle")
	t.AddNote("no FP pipeline or TLB is modeled; the ISA is integer-only (see DESIGN.md)")
	return t
}

// table2Sweep is the degenerate sweep behind the table2 scenario: no axes,
// one point, no simulation — the configuration echo. Its one row is nil,
// which round-trips through the codec as JSON null.
var table2Sweep = &scenario.Sweep{
	ID: "table2",
	Plan: func(spec scenario.Spec) (*scenario.Plan, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return &scenario.Plan{Point: func(scenario.Point) (any, error) { return nil, nil }}, nil
	},
	DecodeRow: decodeRowAs[any],
}
