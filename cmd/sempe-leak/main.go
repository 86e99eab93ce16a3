// Command sempe-leak runs the side-channel distinguisher: it executes a
// workload under two different secrets on both the unprotected baseline and
// the SeMPE core and reports which observable channels tell the secrets
// apart. On a correct implementation the baseline leaks and SeMPE does not:
//
//	sempe-leak -workload quicksort -w 3
//	sempe-leak -workload djpeg-ppm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/leak"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "quicksort", "fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp")
		w        = flag.Int("w", 3, "secret branches per iteration")
		iters    = flag.Int("i", 2, "iterations")
		s1       = flag.Uint64("s1", 0, "first secret (or image seed)")
		s2       = flag.Uint64("s2", 5, "second secret (or image seed)")
		blocks   = flag.Int("blocks", 16, "image blocks (djpeg)")
	)
	flag.Parse()
	if strings.HasPrefix(*workload, "djpeg-") {
		inRange("blocks", *blocks, 1, jpegsim.MaxBlocks)
	} else {
		inRange("w", *w, 1, compile.MaxSecretNesting)
	}

	build := func(mode compile.Mode) func(uint64) (*isa.Program, error) {
		return func(secret uint64) (*isa.Program, error) {
			if name, isImage := strings.CutPrefix(*workload, "djpeg-"); isImage {
				f, err := jpegsim.ParseFormat(name)
				if err != nil {
					return nil, fmt.Errorf("unknown workload %q: %w", *workload, err)
				}
				spec := jpegsim.ImageSpec{Format: f, Blocks: *blocks, Sparsity: 50, Seed: secret}
				out, err := compile.Compile(jpegsim.BuildProgram(spec), mode)
				if err != nil {
					return nil, err
				}
				return out.Prog, nil
			}
			kind, err := workloads.Parse(*workload)
			if err != nil {
				return nil, fmt.Errorf("unknown workload %q: %w", *workload, err)
			}
			spec := workloads.HarnessSpec{Kind: kind, W: *w, I: *iters, Secret: secret}
			out, err := compile.Compile(workloads.Harness(spec), mode)
			if err != nil {
				return nil, err
			}
			return out.Prog, nil
		}
	}

	fmt.Printf("distinguishing secrets %d and %d on %s\n\n", *s1, *s2, *workload)

	baseRep, err := leak.Distinguish(pipeline.DefaultConfig(), build(compile.Plain), *s1, *s2)
	if err != nil {
		fatal("baseline: %v", err)
	}
	fmt.Printf("baseline architecture, unprotected binary:\n  %v\n\n", baseRep)

	secRep, err := leak.Distinguish(pipeline.SecureConfig(), build(compile.SeMPE), *s1, *s2)
	if err != nil {
		fatal("sempe: %v", err)
	}
	fmt.Printf("SeMPE architecture, sJMP-instrumented binary:\n  %v\n\n", secRep)

	legacyRep, err := leak.Distinguish(pipeline.DefaultConfig(), build(compile.SeMPE), *s1, *s2)
	if err != nil {
		fatal("legacy: %v", err)
	}
	fmt.Printf("legacy architecture, same sJMP binary (backward compatible, unprotected):\n  %v\n", legacyRep)

	if baseRep.Leaks() && !secRep.Leaks() {
		fmt.Println("\nRESULT: SeMPE closes every observed channel the baseline leaks.")
	} else if !baseRep.Leaks() {
		fmt.Println("\nRESULT: inconclusive — the baseline did not leak for these secrets.")
		os.Exit(1)
	} else {
		fmt.Println("\nRESULT: LEAK under SeMPE — this would be an implementation bug.")
		os.Exit(1)
	}
}

// inRange exits with an error naming the flag unless v is in [lo,hi]. Past
// these ranges building the program panics or exhausts memory.
func inRange(flag string, v, lo, hi int) {
	if v < lo || v > hi {
		fatal("-%s: %d out of range [%d,%d]", flag, v, lo, hi)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-leak: "+format+"\n", args...)
	os.Exit(1)
}
