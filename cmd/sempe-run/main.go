// Command sempe-run executes a workload on the simulated core and prints
// the execution statistics. It is the quickest way to see SeMPE's effect:
//
//	sempe-run -workload quicksort -w 4 -arch baseline
//	sempe-run -workload quicksort -w 4 -arch sempe
//	sempe-run -workload djpeg-ppm -blocks 32 -arch sempe
//	sempe-run -asm prog.s -arch sempe
//
// sempe-trace records the same runs' speculative-window event stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

const cmd = cli.Cmd("sempe-run")

func main() {
	var sel cli.Selection
	flag.StringVar(&sel.Workload, "workload", "quicksort", "fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp")
	flag.IntVar(&sel.W, "w", 4, "secret branches per iteration (microbenchmarks)")
	flag.IntVar(&sel.I, "i", 8, "iterations of the secure region")
	flag.IntVar(&sel.N, "n", 0, "kernel size parameter (0 = default)")
	flag.IntVar(&sel.Blocks, "blocks", 32, "image blocks (djpeg workloads)")
	flag.IntVar(&sel.Sparsity, "sparsity", 50, "busy-block percentage (djpeg workloads)")
	flag.StringVar(&sel.Asm, "asm", "", "run an assembly file instead of a built-in workload")
	var (
		arch     = flag.String("arch", "baseline", "baseline|sempe (which core runs the program)")
		mode     = flag.String("compile", "", "plain|sempe|cte (default: match -arch)")
		secret   = flag.Uint64("secret", 0, "secret input selecting branch paths (djpeg workloads: the image content)")
		disasm   = flag.Bool("disasm", false, "print the disassembly before running")
		taint    = flag.Bool("taint", true, "run the secret-taint linter on DSL workloads")
		collapse = flag.Bool("collapse", false, "apply the nesting-collapse optimization (paper §IV-E)")
	)
	flag.Parse()

	cfg, cmode := cmd.Machine(*arch, *mode)
	prog, err := cmd.Programs(sel, cmode, func(lp *lang.Program) {
		if *taint {
			if rep := lang.AnalyzeTaint(lp); !rep.Clean() {
				fmt.Fprintf(os.Stderr, "taint: unmarked=%v loops=%v indices=%v\n",
					rep.UnmarkedBranches, rep.SecretLoopConds, rep.SecretIndices)
			}
		}
		if *collapse {
			n := lang.CollapseNested(lp)
			fmt.Printf("collapsed %d nested secret branches\n", n)
		}
	})(*secret)
	if err != nil {
		cmd.Fatal("compile: %v", err)
	}

	if *disasm {
		fmt.Println(prog.Disassemble())
	}
	sjmp, eos := prog.CountSecure()
	fmt.Printf("binary: %d code bytes, %d static sJMP, %d static eosJMP (compile=%v arch=%s)\n",
		len(prog.Code), sjmp, eos, cmode, *arch)

	core := pipeline.New(cfg, prog)
	if err := core.Run(); err != nil {
		cmd.Fatal("run: %v", err)
	}
	printStats(core)
}

func printStats(core *pipeline.Core) {
	s := core.Stats
	t := &stats.Table{Title: "execution statistics", Header: []string{"metric", "value"}}
	t.AddRow("cycles", stats.Int(s.Cycles))
	t.AddRow("instructions", stats.Int(s.Insts))
	t.AddRow("CPI", stats.Float(s.CPI(), 3))
	t.AddRow("branches", stats.Int(s.Branches))
	t.AddRow("mispredicts", stats.Int(s.BranchMispredicts))
	t.AddRow("sJMP committed", stats.Int(s.SJmps))
	t.AddRow("eosJMP committed", stats.Int(s.EOSJmps))
	t.AddRow("secure jump-backs", stats.Int(s.SecRedirects))
	t.AddRow("wrong-path fetches", stats.Int(s.WrongPathFetches))
	t.AddRow("squashed uops", stats.Int(s.SquashedUops))
	t.AddRow("flushes (mispredict/secure/overflow)",
		fmt.Sprintf("%d/%d/%d", s.FlushMispredicts, s.FlushSecRedirects, s.FlushOverflows))
	t.AddRow("max secure nesting", fmt.Sprintf("%d", s.MaxNestDepth))
	t.AddRow("drain stall cycles", stats.Int(s.DrainStallCycles))
	t.AddRow("SPM stall cycles", stats.Int(s.SPMStallCycles))
	t.AddRow("SPM bytes saved/restored", fmt.Sprintf("%d/%d", core.SPM.BytesSaved, core.SPM.BytesRestored))
	t.AddRow("IL1 miss rate", stats.Percent(core.Hier.IL1.Stats.MissRate()))
	t.AddRow("DL1 miss rate", stats.Percent(core.Hier.DL1.Stats.MissRate()))
	t.AddRow("L2 miss rate", stats.Percent(core.Hier.L2.Stats.MissRate()))
	t.AddRow("TAGE mispredict rate", stats.Percent(core.BP.TAGE.MispredictRate()))
	t.Render(os.Stdout)
}
