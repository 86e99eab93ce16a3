package experiments

import (
	"repro/internal/attack"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// The paper's artifacts and the security sweep, registered in the order
// `-exp all` renders them. Fig. 10a/b and Table I are three renderings of
// one microbenchmark sweep, and Fig. 8/9 two renderings of one djpeg grid:
// sharing the Sweep lets a RowCache-equipped invocation simulate each grid
// once.
func init() {
	scenario.Register(&scenario.Scenario{
		Name:        "table2",
		Description: "Table II: baseline microarchitecture configuration echo",
		Sweep:       table2Sweep,
		Render: func(scenario.Spec, []any) []*stats.Table {
			return []*stats.Table{Table2()}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "fig8",
		Description: "Fig. 8: djpeg execution-time overhead grid (formats x sizes); params: sparsity, seed, sizes",
		Sweep:       fig8Sweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderFig8(narrow[Fig8Row](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "fig9",
		Description: "Fig. 9: cache miss rates over the djpeg grid; params: sparsity, seed, sizes",
		Sweep:       fig8Sweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderFig9(narrow[Fig8Row](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "fig10a",
		Description: "Fig. 10a: microbenchmark slowdown vs. baseline (kernels x W); params: kinds, ws, iters, secret",
		Sweep:       fig10Sweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderFig10a(narrow[Fig10Row](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "fig10b",
		Description: "Fig. 10b: slowdown normalized to the ideal W+1; params: kinds, ws, iters, secret",
		Sweep:       fig10Sweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderFig10b(narrow[Fig10Row](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "table1",
		Description: "Table I: approach comparison with measured worst-case overheads; params: kinds, ws, iters, secret",
		Sweep:       fig10Sweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{Table1(narrow[Fig10Row](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "ablation",
		Description: "SPM geometry ablation: jbTable depth (slots) x SPM bandwidth, with §IV-E overflow downgrades; params: kind, w, iters, slots, bws",
		Sweep:       ablationSweep,
		Render: func(spec scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderAblation(spec, narrow[AblationRow](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "spectre",
		Description: "attack lab: Spectre-PHT predictor probe + DL1 prime+probe secret recovery, baseline vs. SeMPE; params: attackers, archs, trials, seed, noise",
		Sweep:       attackSweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderSpectre(narrow[attack.Assessment](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "tvla",
		Description: "attack lab: TVLA fixed-vs-random leakage assessment per observable (same sweep as spectre); params: attackers, archs, trials, seed, noise",
		Sweep:       attackSweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderTVLA(narrow[attack.Assessment](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "keyextract",
		Description: "attack lab: multi-bit key extraction over the victim matrix (attacker x victim x width x gap x arch); params: attackers, victims, widths, gaps, archs, trials, seed, noise",
		Sweep:       keyExtractSweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderKeyExtract(narrow[attack.KeyRecovery](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "noise",
		Description: "attack lab: attacker-strength sweep — key extraction vs. train-to-probe gap activity; params: attackers, victims, widths, gaps, archs, trials, seed, noise",
		Sweep:       noiseSweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderNoise(narrow[attack.KeyRecovery](rows))}
		},
	})
	scenario.Register(&scenario.Scenario{
		Name:        "leakmatrix",
		Description: "security sweep: observable-channel distinguisher, baseline vs. SeMPE (kernels x W); params: kinds, ws, iters, secrets",
		Sweep:       leakSweep,
		Render: func(_ scenario.Spec, rows []any) []*stats.Table {
			return []*stats.Table{RenderLeakMatrix(narrow[LeakRow](rows))}
		},
	})
}
