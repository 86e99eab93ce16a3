// Command sempe-trace records and renders the speculative-window event
// stream — every fetch, predictor lookup, execution, cache fill, and flush of
// in-flight work, wrong-path included — for a workload program or a single
// attack trial. It is the microscope for the transient window that the
// commit-time observables cannot see:
//
//	sempe-trace -workload quicksort -w 2 -arch baseline
//	sempe-trace -workload ones -secret 5 -diff-secret 9 -arch baseline
//	sempe-trace -workload djpeg-ppm -blocks 4 -secret 1 -diff-secret 2 -arch sempe
//	sempe-trace -attacker bp -victim keyloop -width 4 -key 0xb -arch sempe
//	sempe-trace -workload quicksort -json trace.json   # chrome://tracing
//
// The -diff-secret mode runs the same workload under two secrets (for a
// djpeg image, two image contents) and diffs the wrong-path touch sets: on
// the unprotected baseline the difference IS the transient leak; under
// -arch sempe it must be empty.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/isa"
	"repro/internal/leak"
	"repro/internal/pipeline"
)

const cmd = cli.Cmd("sempe-trace")

func main() {
	// Program selection (default mode).
	var sel cli.Selection
	flag.StringVar(&sel.Workload, "workload", "quicksort", "fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp")
	flag.IntVar(&sel.W, "w", 2, "secret branches per iteration (microbenchmarks)")
	flag.IntVar(&sel.I, "i", 4, "iterations of the secure region")
	flag.IntVar(&sel.N, "n", 0, "kernel size parameter (0 = default)")
	flag.IntVar(&sel.Blocks, "blocks", 16, "image blocks (djpeg workloads)")
	flag.IntVar(&sel.Sparsity, "sparsity", 50, "busy-block percentage (djpeg workloads)")
	flag.StringVar(&sel.Asm, "asm", "", "trace an assembly file instead of a built-in workload")
	var (
		secret = flag.Uint64("secret", 0, "secret input selecting branch paths (djpeg workloads: the image content)")

		// Trial selection (-attacker switches to this mode).
		attacker = flag.String("attacker", "", "bp|cache: trace one attack trial instead of a program")
		victimN  = flag.String("victim", "", "victim implementation (default: the direct one-bit victim)")
		trialIdx = flag.Int("trial", 0, "trial index within the deterministic trial stream")
		width    = flag.Int("width", 0, "victim key width in bits (0 = 1)")
		bit      = flag.Int("bit", 0, "attacked bit position")
		key      = flag.Uint64("key", 0, "victim key value for the traced trial")
		gap      = flag.Int("gap", 0, "attacker-strength gap units (live-measurement replay)")
		seed     = flag.Int64("seed", 1, "trial stream seed")
		noise    = flag.Int("noise", 2, "in-window public noise bound")

		// Shared.
		arch       = flag.String("arch", "baseline", "baseline|sempe")
		mode       = flag.String("compile", "", "plain|sempe|cte (default: match -arch)")
		capFlag    = flag.Int("cap", 1<<20, "trace ring capacity (events; oldest dropped beyond this)")
		jsonOut    = flag.String("json", "", "write the trace as Chrome trace_event JSON to FILE instead of text")
		diffSecret = flag.Int64("diff-secret", -1, "diff wrong-path touch sets between -secret and this secret (workload mode)")
	)
	flag.Parse()

	cfg, cmode := cmd.Machine(*arch, *mode)
	// 16x the default; at 1e12 events the ring alone exhausted memory.
	cmd.InRange("cap", *capFlag, 1, 1<<24)

	if *attacker != "" {
		kind, err := attack.ParseKind(*attacker)
		if err != nil {
			cmd.Fatal("%v", err)
		}
		p := attack.DefaultParams(kind, cfg.SeMPE)
		p.Victim, p.Width, p.Bit, p.Gap, p.Seed, p.Noise = *victimN, *width, *bit, *gap, *seed, *noise
		tr := pipeline.NewTracer(*capFlag)
		obs, err := attack.TraceTrial(p, *trialIdx, *key, tr.Record)
		if err != nil {
			cmd.Fatal("trial: %v", err)
		}
		fmt.Printf("trial %d (%s/%s key=%#x bit=%d): observation %v\n",
			*trialIdx, kind, *arch, *key, *bit, obs)
		dump(tr, *jsonOut)
		return
	}

	if *diffSecret >= 0 && sel.Asm != "" {
		cmd.Fatal("-diff-secret needs a workload parameterized by -secret, not -asm")
	}
	build := cmd.Programs(sel, cmode, nil)
	if *diffSecret >= 0 {
		diffRun(cfg, build, *secret, uint64(*diffSecret))
		return
	}

	prog, err := build(*secret)
	if err != nil {
		cmd.Fatal("%v", err)
	}
	tr := pipeline.NewTracer(*capFlag)
	core := pipeline.New(cfg, prog)
	core.SetSpecWatch(tr.Record)
	if err := core.Run(); err != nil {
		cmd.Fatal("run: %v", err)
	}
	s := core.Stats
	fmt.Printf("%d cycles, %d insts; wrong-path fetches %d, squashed uops %d, flushes %d mispredict / %d secure / %d overflow\n",
		s.Cycles, s.Insts, s.WrongPathFetches, s.SquashedUops,
		s.FlushMispredicts, s.FlushSecRedirects, s.FlushOverflows)
	dump(tr, *jsonOut)
}

// dump renders the recorded trace: Chrome JSON when a path was given, the
// text timeline otherwise.
func dump(tr *pipeline.Tracer, jsonOut string) {
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			cmd.Fatal("%v", err)
		}
		if err := tr.WriteChromeJSON(f); err != nil {
			cmd.Fatal("json: %v", err)
		}
		if err := f.Close(); err != nil {
			cmd.Fatal("json: %v", err)
		}
		fmt.Printf("spec trace: %d events (%d dropped) -> %s\n", tr.Total(), tr.Dropped(), jsonOut)
		return
	}
	if err := tr.WriteText(os.Stdout); err != nil {
		cmd.Fatal("%v", err)
	}
}

// diffRun traces the same workload under two secrets and reports the
// difference of the wrong-path touch sets — the transient leak, if any.
func diffRun(cfg pipeline.Config, build func(uint64) (*isa.Program, error), sa, sb uint64) {
	observe := func(sec uint64) leak.SpecObservation {
		prog, err := build(sec)
		if err != nil {
			cmd.Fatal("%v", err)
		}
		so, _, err := leak.ObserveSpec(cfg, prog)
		if err != nil {
			cmd.Fatal("run secret=%d: %v", sec, err)
		}
		return so
	}
	a, b := observe(sa), observe(sb)
	fmt.Printf("secret=%d: %d wrong-path loads, %d stores, %d branches, %d fills (%d squashed uops)\n",
		sa, len(a.WrongPathLoads), len(a.WrongPathStores), len(a.WrongPathBranches), len(a.WrongPathFills), a.SquashedUops)
	fmt.Printf("secret=%d: %d wrong-path loads, %d stores, %d branches, %d fills (%d squashed uops)\n",
		sb, len(b.WrongPathLoads), len(b.WrongPathStores), len(b.WrongPathBranches), len(b.WrongPathFills), b.SquashedUops)
	if leak.TouchSetsEqual(a, b) {
		fmt.Println("wrong-path touch sets IDENTICAL across secrets (no transient leak)")
		return
	}
	fmt.Println("wrong-path touch sets DIFFER across secrets — transient leak:")
	diffSet := func(name string, xa, xb []uint64) {
		onlyA, onlyB := setDiff(xa, xb), setDiff(xb, xa)
		if len(onlyA) == 0 && len(onlyB) == 0 {
			return
		}
		fmt.Printf("  %s:\n", name)
		for _, v := range onlyA {
			fmt.Printf("    only secret=%d: %#x\n", sa, v)
		}
		for _, v := range onlyB {
			fmt.Printf("    only secret=%d: %#x\n", sb, v)
		}
	}
	diffSet("loads", a.WrongPathLoads, b.WrongPathLoads)
	diffSet("stores", a.WrongPathStores, b.WrongPathStores)
	diffSet("branches", a.WrongPathBranches, b.WrongPathBranches)
	diffSet("cache fills", a.WrongPathFills, b.WrongPathFills)
}

// setDiff returns the elements of sorted set a missing from sorted set b.
func setDiff(a, b []uint64) []uint64 {
	var out []uint64
	for _, v := range a {
		if !leak.ContainsAddr(b, v) {
			out = append(out, v)
		}
	}
	return out
}
