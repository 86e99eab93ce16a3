// Package repro holds the repository-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation, plus ablations for the
// design choices DESIGN.md calls out. Custom metrics carry the paper's
// quantities (slowdowns, overheads, miss rates); ns/op measures simulator
// wall time, which is not a paper quantity.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/emu"
	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

func runOn(b *testing.B, cfg pipeline.Config, p *lang.Program, mode compile.Mode) *pipeline.Core {
	b.Helper()
	out, err := compile.Compile(p, mode)
	if err != nil {
		b.Fatal(err)
	}
	core := pipeline.New(cfg, out.Prog)
	if err := core.Run(); err != nil {
		b.Fatal(err)
	}
	return core
}

// ------------------------------------------------------------- Figure 10

// benchFig10 measures one (kernel, W) point: baseline, SeMPE, and the
// constant-time rewrite, reporting the paper's Fig. 10a/b series values.
func benchFig10(b *testing.B, kind workloads.Kind, w int) {
	spec := workloads.HarnessSpec{Kind: kind, W: w, I: 4}
	var base, sec, cte uint64
	for i := 0; i < b.N; i++ {
		base = runOn(b, pipeline.DefaultConfig(), workloads.Harness(spec), compile.Plain).Stats.Cycles
		sec = runOn(b, pipeline.SecureConfig(), workloads.Harness(spec), compile.SeMPE).Stats.Cycles
		cte = runOn(b, pipeline.DefaultConfig(), workloads.HarnessCT(spec), compile.Plain).Stats.Cycles
	}
	sempeX := float64(sec) / float64(base)
	cteX := float64(cte) / float64(base)
	b.ReportMetric(sempeX, "sempe_x")                     // Fig. 10a solid line
	b.ReportMetric(cteX, "cte_x")                         // Fig. 10a dashed line
	b.ReportMetric(sempeX/float64(w+1), "sempe_vs_ideal") // Fig. 10b
	b.ReportMetric(cteX/float64(w+1), "cte_vs_ideal")
}

func BenchmarkFig10(b *testing.B) {
	for _, kind := range workloads.All() {
		for _, w := range []int{1, 4, 10} {
			b.Run(fmt.Sprintf("%s/W%d", kind, w), func(b *testing.B) {
				benchFig10(b, kind, w)
			})
		}
	}
}

// -------------------------------------------------------- Figures 8 and 9

// benchFig8 measures one (format, size) cell of Fig. 8 and reports the
// Fig. 9 miss rates from the same runs.
func benchFig8(b *testing.B, format jpegsim.Format, blocks int) {
	img := jpegsim.ImageSpec{Format: format, Blocks: blocks, Sparsity: 60, Seed: 11}
	var base, sec *pipeline.Core
	for i := 0; i < b.N; i++ {
		p := jpegsim.BuildProgram(img)
		base = runOn(b, pipeline.DefaultConfig(), p, compile.Plain)
		sec = runOn(b, pipeline.SecureConfig(), p, compile.SeMPE)
	}
	b.ReportMetric(100*(float64(sec.Stats.Cycles)/float64(base.Stats.Cycles)-1), "overhead_%")
	b.ReportMetric(100*sec.Hier.IL1.Stats.MissRate(), "il1_miss_%")
	b.ReportMetric(100*sec.Hier.DL1.Stats.MissRate(), "dl1_miss_%")
	b.ReportMetric(100*sec.Hier.L2.Stats.MissRate(), "l2_miss_%")
}

func BenchmarkFig8(b *testing.B) {
	for _, f := range jpegsim.Formats() {
		for _, size := range jpegsim.SizeLabels {
			b.Run(fmt.Sprintf("%s/%s", f, size.Label), func(b *testing.B) {
				benchFig8(b, f, size.Blocks)
			})
		}
	}
}

// BenchmarkFig9 reports the baseline-vs-SeMPE cache miss rates explicitly
// (Fig. 8's benchmark reports only the secure side).
func BenchmarkFig9(b *testing.B) {
	for _, f := range jpegsim.Formats() {
		b.Run(f.String(), func(b *testing.B) {
			img := jpegsim.ImageSpec{Format: f, Blocks: 32, Sparsity: 60, Seed: 11}
			var base, sec *pipeline.Core
			for i := 0; i < b.N; i++ {
				p := jpegsim.BuildProgram(img)
				base = runOn(b, pipeline.DefaultConfig(), p, compile.Plain)
				sec = runOn(b, pipeline.SecureConfig(), p, compile.SeMPE)
			}
			b.ReportMetric(100*base.Hier.DL1.Stats.MissRate(), "dl1_base_%")
			b.ReportMetric(100*sec.Hier.DL1.Stats.MissRate(), "dl1_sempe_%")
			b.ReportMetric(100*base.Hier.IL1.Stats.MissRate(), "il1_base_%")
			b.ReportMetric(100*sec.Hier.IL1.Stats.MissRate(), "il1_sempe_%")
			b.ReportMetric(100*base.Hier.L2.Stats.MissRate(), "l2_base_%")
			b.ReportMetric(100*sec.Hier.L2.Stats.MissRate(), "l2_sempe_%")
		})
	}
}

// --------------------------------------------------------------- Table I

// BenchmarkTable1Worst measures the worst-case overheads quoted in Table I:
// the deepest nesting (W=10) for SeMPE and CTE.
func BenchmarkTable1Worst(b *testing.B) {
	for _, kind := range []workloads.Kind{workloads.Fibonacci, workloads.Quicksort} {
		b.Run(kind.String(), func(b *testing.B) {
			benchFig10(b, kind, 10)
		})
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblationSnapshot compares the chosen ArchRS snapshot (48
// architectural registers) against the rejected PhyRS design (256 physical
// registers + RAT) — paper §IV-F.
func BenchmarkAblationSnapshot(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Fibonacci, W: 6, I: 4}
	for _, tc := range []struct {
		name  string
		bytes int
	}{
		{"ArchRS", 0}, // default: 48 regs
		{"PhyRS", mem.PhyRSSnapshotBytes},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := pipeline.SecureConfig()
			cfg.SPM.SnapshotBytes = tc.bytes
			var core *pipeline.Core
			for i := 0; i < b.N; i++ {
				core = runOn(b, cfg, workloads.Harness(spec), compile.SeMPE)
			}
			b.ReportMetric(float64(core.Stats.Cycles), "cycles")
			b.ReportMetric(float64(core.SPM.BytesSaved), "spm_bytes_saved")
			b.ReportMetric(float64(core.Stats.SPMStallCycles), "spm_stall_cycles")
		})
	}
}

// BenchmarkAblationSPMBandwidth varies the scratchpad port width, showing
// why Table II provisions 64 B/cycle.
func BenchmarkAblationSPMBandwidth(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Fibonacci, W: 6, I: 4}
	for _, bw := range []int{8, 16, 64, 256} {
		b.Run(fmt.Sprintf("%dBpc", bw), func(b *testing.B) {
			cfg := pipeline.SecureConfig()
			cfg.SPM.Bandwidth = bw
			var core *pipeline.Core
			for i := 0; i < b.N; i++ {
				core = runOn(b, cfg, workloads.Harness(spec), compile.SeMPE)
			}
			b.ReportMetric(float64(core.Stats.Cycles), "cycles")
			b.ReportMetric(float64(core.Stats.SPMStallCycles), "spm_stall_cycles")
		})
	}
}

// BenchmarkAblationPrefetch toggles the stride/stream prefetchers: the
// paper credits part of SeMPE's near-ideal behavior to the prefetching
// effect between the two paths.
func BenchmarkAblationPrefetch(b *testing.B) {
	img := jpegsim.ImageSpec{Format: jpegsim.PPM, Blocks: 32, Sparsity: 60, Seed: 11}
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := pipeline.SecureConfig()
			if !on {
				cfg.StridePrefetchTable = 0
				cfg.StreamWindow = 0
			}
			var core *pipeline.Core
			for i := 0; i < b.N; i++ {
				core = runOn(b, cfg, jpegsim.BuildProgram(img), compile.SeMPE)
			}
			b.ReportMetric(float64(core.Stats.Cycles), "cycles")
			b.ReportMetric(100*core.Hier.DL1.Stats.MissRate(), "dl1_miss_%")
		})
	}
}

// BenchmarkAblationDrains reports how many cycles the three per-SecBlock
// pipeline drains cost (they cannot be disabled — they are load-bearing for
// correctness — so this quantifies rather than toggles them).
func BenchmarkAblationDrains(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 4, I: 4}
	var core *pipeline.Core
	for i := 0; i < b.N; i++ {
		core = runOn(b, pipeline.SecureConfig(), workloads.Harness(spec), compile.SeMPE)
	}
	b.ReportMetric(float64(core.Stats.DrainStallCycles), "drain_stall_cycles")
	b.ReportMetric(100*float64(core.Stats.DrainStallCycles)/float64(core.Stats.Cycles), "drain_%_of_cycles")
}

// BenchmarkAblationRedirectPenalty varies the front-end redirect cost paid
// at every eosJMP jump-back.
func BenchmarkAblationRedirectPenalty(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Ones, W: 4, I: 4}
	for _, pen := range []int{0, 3, 10} {
		b.Run(fmt.Sprintf("penalty%d", pen), func(b *testing.B) {
			cfg := pipeline.SecureConfig()
			cfg.RedirectPenalty = pen
			var core *pipeline.Core
			for i := 0; i < b.N; i++ {
				core = runOn(b, cfg, workloads.Harness(spec), compile.SeMPE)
			}
			b.ReportMetric(float64(core.Stats.Cycles), "cycles")
		})
	}
}

// BenchmarkAblationCollapse measures the §IV-E nesting-collapse compiler
// optimization on a then-nested secret chain: one secure region with a
// wider condition replaces a stack of nested regions.
func BenchmarkAblationCollapse(b *testing.B) {
	build := func(collapse bool) *lang.Program {
		body := []lang.Stmt{lang.Set("x", lang.B(lang.Add, lang.V("x"), lang.N(1)))}
		for i := 4; i >= 0; i-- {
			cond := lang.B(lang.And, lang.B(lang.Shr, lang.V("s"), lang.N(int64(i))), lang.N(1))
			body = []lang.Stmt{lang.SecretIf(cond, body, nil)}
		}
		body = append(body, lang.Set("i", lang.B(lang.Add, lang.V("i"), lang.N(1))))
		p := &lang.Program{
			Vars: []*lang.VarDecl{
				{Name: "s", Init: 0b11111, Secret: true},
				{Name: "x"}, {Name: "i"},
			},
			Body: []lang.Stmt{lang.Loop(lang.B(lang.Lt, lang.V("i"), lang.N(100)), body)},
		}
		if collapse {
			lang.CollapseNested(p)
		}
		return p
	}
	for _, collapse := range []bool{false, true} {
		name := "nested"
		if collapse {
			name = "collapsed"
		}
		b.Run(name, func(b *testing.B) {
			var core *pipeline.Core
			for i := 0; i < b.N; i++ {
				core = runOn(b, pipeline.SecureConfig(), build(collapse), compile.SeMPE)
			}
			b.ReportMetric(float64(core.Stats.Cycles), "cycles")
			b.ReportMetric(float64(core.Stats.SJmps), "sjmps")
			b.ReportMetric(float64(core.Stats.MaxNestDepth), "max_nest")
		})
	}
}

// --------------------------------------------------------- infrastructure

// BenchmarkSimulatorSpeed measures raw simulation throughput (simulated
// instructions per wall second) — an infrastructure number, not a paper
// result. Cores come from a warm prototype pool (Reset in place, not
// reallocated), so the number measures simulation, decode included, not
// construction; TestPrototypeMatchesNew pins the pooled run cycle-identical
// to a new core's.
func BenchmarkSimulatorSpeed(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 4}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		b.Fatal(err)
	}
	proto := pipeline.NewPrototype(pipeline.DefaultConfig(), out.Prog)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := pipeline.NewFromPrototype(proto)
		if err := core.Run(); err != nil {
			b.Fatal(err)
		}
		insts += core.Stats.Insts
		proto.Recycle(core)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSteadyStatePipeline measures one StepCycle of the out-of-order
// core in steady state (fetch through commit on a long-running loop).
// allocs/op is the headline: the uop pool, ring buffers, and pre-decode
// cache make the whole fetch-to-commit path allocation-free, so this must
// report ~0 allocs/op.
func BenchmarkSteadyStatePipeline(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 1 << 20}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	core := pipeline.New(cfg, out.Prog)
	// Warm the pool, predictors, and caches past the cold-start transient.
	for i := 0; i < 10_000; i++ {
		if err := core.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Halted() {
			b.Fatal("workload halted mid-benchmark; raise I")
		}
		if err := core.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.Stats.Insts)/float64(core.Stats.Cycles), "ipc")
}

// BenchmarkSteadyStateSecure is the same measurement with SeMPE enabled
// (drains, SPM snapshots, and commit-time redirects on the hot path).
func BenchmarkSteadyStateSecure(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 1 << 20}
	out, err := compile.Compile(workloads.Harness(spec), compile.SeMPE)
	if err != nil {
		b.Fatal(err)
	}
	core := pipeline.New(pipeline.SecureConfig(), out.Prog)
	for i := 0; i < 10_000; i++ {
		if err := core.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Halted() {
			b.Fatal("workload halted mid-benchmark; raise I")
		}
		if err := core.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemAccess measures the sparse-memory fast paths: in-page accesses
// ride encoding/binary plus the one-entry last-page cache; cross-page
// accesses split into per-page bulk copies. All must be allocation-free.
func BenchmarkMemAccess(b *testing.B) {
	const page = 1 << 14
	cases := []struct {
		name string
		addr uint64
	}{
		{"Read64/inpage", 128},
		{"Read64/crosspage", page - 3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := mem.NewMemory()
			m.Write64(tc.addr, 0x0123456789abcdef)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += m.Read64(tc.addr)
			}
			_ = sink
		})
	}
	b.Run("Write64/inpage", func(b *testing.B) {
		m := mem.NewMemory()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Write64(128, uint64(i))
		}
	})
	b.Run("Write64/crosspage", func(b *testing.B) {
		m := mem.NewMemory()
		m.Write8(0, 0) // pre-back both pages so the loop is steady-state
		m.Write8(page, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Write64(page-3, uint64(i))
		}
	})
}

// BenchmarkFig10Sweep measures the wall time of a reduced Fig. 10 sweep —
// the end-to-end number the hot-path work targets — serially and on the
// bounded worker pool (results are bit-identical either way).
func BenchmarkFig10Sweep(b *testing.B) {
	sc, _ := scenario.Lookup("fig10a")
	spec := scenario.Spec{Params: map[string]string{
		"kinds": "fibonacci,quicksort", "ws": "1,4", "iters": "4"}}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			spec.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(sc, spec, scenario.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmulatorSpeed measures the functional golden model's throughput.
func BenchmarkEmulatorSpeed(b *testing.B) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 4}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(emu.Legacy, out.Prog, mem.DefaultSPMConfig().Slots)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		insts += m.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
