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

	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/leak"
	"repro/internal/pipeline"
)

const cmd = cli.Cmd("sempe-leak")

func main() {
	sel := cli.Selection{Sparsity: 50}
	flag.StringVar(&sel.Workload, "workload", "quicksort", "fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp")
	flag.IntVar(&sel.W, "w", 3, "secret branches per iteration")
	flag.IntVar(&sel.I, "i", 2, "iterations")
	s1 := flag.Uint64("s1", 0, "first secret (or image seed)")
	s2 := flag.Uint64("s2", 5, "second secret (or image seed)")
	flag.IntVar(&sel.Blocks, "blocks", 16, "image blocks (djpeg)")
	flag.Parse()
	plain, sjmp := cmd.Programs(sel, compile.Plain, nil), cmd.Programs(sel, compile.SeMPE, nil)

	fmt.Printf("distinguishing secrets %d and %d on %s\n\n", *s1, *s2, sel.Workload)

	baseRep, err := leak.Distinguish(pipeline.DefaultConfig(), plain, *s1, *s2)
	if err != nil {
		cmd.Fatal("baseline: %v", err)
	}
	fmt.Printf("baseline architecture, unprotected binary:\n  %v\n\n", baseRep)

	secRep, err := leak.Distinguish(pipeline.SecureConfig(), sjmp, *s1, *s2)
	if err != nil {
		cmd.Fatal("sempe: %v", err)
	}
	fmt.Printf("SeMPE architecture, sJMP-instrumented binary:\n  %v\n\n", secRep)

	legacyRep, err := leak.Distinguish(pipeline.DefaultConfig(), sjmp, *s1, *s2)
	if err != nil {
		cmd.Fatal("legacy: %v", err)
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
