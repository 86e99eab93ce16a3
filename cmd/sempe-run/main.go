// Command sempe-run executes a workload on the simulated core and prints
// the execution statistics. It is the quickest way to see SeMPE's effect:
//
//	sempe-run -workload quicksort -w 4 -arch baseline
//	sempe-run -workload quicksort -w 4 -arch sempe
//	sempe-run -workload djpeg-ppm -blocks 32 -arch sempe
//	sempe-run -asm prog.s -arch sempe
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "quicksort", "fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp")
		arch      = flag.String("arch", "baseline", "baseline|sempe (which core runs the program)")
		mode      = flag.String("compile", "", "plain|sempe|cte (default: match -arch)")
		w         = flag.Int("w", 4, "secret branches per iteration (microbenchmarks)")
		iters     = flag.Int("i", 8, "iterations of the secure region")
		size      = flag.Int("n", 0, "kernel size parameter (0 = default)")
		secret    = flag.Uint64("secret", 0, "secret input selecting branch paths")
		blocks    = flag.Int("blocks", 32, "image blocks (djpeg workloads)")
		sparsity  = flag.Int("sparsity", 50, "busy-block percentage (djpeg workloads)")
		seed      = flag.Uint64("seed", 11, "image content seed (djpeg workloads)")
		asmFile   = flag.String("asm", "", "run an assembly file instead of a built-in workload")
		disasm    = flag.Bool("disasm", false, "print the disassembly before running")
		taint     = flag.Bool("taint", true, "run the secret-taint linter on DSL workloads")
		collapse  = flag.Bool("collapse", false, "apply the nesting-collapse optimization (paper §IV-E)")
		trace     = flag.Bool("trace", false, "record the speculative-window event stream and print the timeline")
		traceJSON = flag.String("trace-json", "", "write the spec trace as Chrome trace_event JSON to FILE")
		traceCap  = flag.Int("trace-cap", 1<<20, "spec-trace ring capacity (events; oldest dropped beyond this)")
	)
	flag.Parse()

	cfg := pipeline.DefaultConfig()
	secure := false
	switch *arch {
	case "baseline":
	case "sempe":
		cfg = pipeline.SecureConfig()
		secure = true
	default:
		fatal("unknown -arch %q", *arch)
	}
	cmode := compile.Plain
	if secure {
		cmode = compile.SeMPE
	}
	switch *mode {
	case "":
	case "plain":
		cmode = compile.Plain
	case "sempe":
		cmode = compile.SeMPE
	case "cte":
		cmode = compile.CTE
	default:
		fatal("unknown -compile %q", *mode)
	}

	var prog *isa.Program
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal("%v", err)
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			fatal("%v", err)
		}
		prog = p
	default:
		var lp *lang.Program
		if name, isImage := strings.CutPrefix(*workload, "djpeg-"); isImage {
			format, err := jpegsim.ParseFormat(name)
			if err != nil {
				fatal("unknown workload %q: %v", *workload, err)
			}
			inRange("blocks", *blocks, 1, jpegsim.MaxBlocks)
			inRange("sparsity", *sparsity, 0, 100)
			lp = jpegsim.BuildProgram(jpegsim.ImageSpec{
				Format: format, Blocks: *blocks, Sparsity: *sparsity, Seed: *seed,
			})
		} else {
			kind, err := workloads.Parse(*workload)
			if err != nil {
				fatal("unknown workload %q: %v", *workload, err)
			}
			inRange("w", *w, 1, compile.MaxSecretNesting)
			lp = workloads.Harness(workloads.HarnessSpec{
				Kind: kind, Size: *size, W: *w, I: *iters, Secret: *secret,
			})
		}
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
		out, err := compile.Compile(lp, cmode)
		if err != nil {
			fatal("compile: %v", err)
		}
		prog = out.Prog
	}

	if *disasm {
		fmt.Println(prog.Disassemble())
	}
	sjmp, eos := prog.CountSecure()
	fmt.Printf("binary: %d code bytes, %d static sJMP, %d static eosJMP (compile=%v arch=%s)\n",
		len(prog.Code), sjmp, eos, cmode, *arch)

	core := pipeline.New(cfg, prog)
	var tr *pipeline.Tracer
	if *trace || *traceJSON != "" {
		tr = pipeline.NewTracer(*traceCap)
		core.SetSpecWatch(tr.Record)
	}
	if err := core.Run(); err != nil {
		fatal("run: %v", err)
	}
	printStats(core)
	if tr != nil {
		if *trace {
			fmt.Println()
			if err := tr.WriteText(os.Stdout); err != nil {
				fatal("trace: %v", err)
			}
		}
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fatal("trace-json: %v", err)
			}
			if err := tr.WriteChromeJSON(f); err != nil {
				fatal("trace-json: %v", err)
			}
			if err := f.Close(); err != nil {
				fatal("trace-json: %v", err)
			}
			fmt.Printf("spec trace: %d events (%d dropped) -> %s\n", tr.Total(), tr.Dropped(), *traceJSON)
		}
	}
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

// inRange exits with an error naming the flag unless v is in [lo,hi]. Past
// these ranges building the program panics or exhausts memory.
func inRange(flag string, v, lo, hi int) {
	if v < lo || v > hi {
		fatal("-%s: %d out of range [%d,%d]", flag, v, lo, hi)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-run: "+format+"\n", args...)
	os.Exit(1)
}
