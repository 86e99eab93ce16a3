// Package cli is the program front end that sempe-run, sempe-trace and
// sempe-leak share. It turns a command's selection flags — a harness
// kernel, a djpeg image or an assembly file — into a program, checking
// every flag's range first, and maps -arch/-compile to a core
// configuration and a compile mode. Each command defines its own flags
// and keeps its own job; every error exits 1 as "<cmd>: <message>".
package cli

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Cmd is a command's name, which prefixes every error it exits with.
type Cmd string

// Fatal prints "<cmd>: <message>" to stderr and exits 1.
func (c Cmd) Fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, string(c)+": "+format+"\n", args...)
	os.Exit(1)
}

// InRange exits with an error naming the flag unless v is in [lo,hi]. Past
// these ranges a command panics, exhausts memory or runs for hours.
func (c Cmd) InRange(flag string, v, lo, hi int) {
	if v < lo || v > hi {
		c.Fatal("-%s: %d out of range [%d,%d]", flag, v, lo, hi)
	}
}

// Machine maps -arch and -compile to the core's configuration and the
// compile mode; an empty -compile matches the architecture.
func (c Cmd) Machine(arch, mode string) (pipeline.Config, compile.Mode) {
	cfg, cmode := pipeline.DefaultConfig(), compile.Plain
	switch arch {
	case "baseline":
	case "sempe":
		cfg, cmode = pipeline.SecureConfig(), compile.SeMPE
	default:
		c.Fatal("unknown -arch %q", arch)
	}
	switch mode {
	case "":
	case "plain":
		cmode = compile.Plain
	case "sempe":
		cmode = compile.SeMPE
	case "cte":
		cmode = compile.CTE
	default:
		c.Fatal("unknown -compile %q", mode)
	}
	return cfg, cmode
}

// Selection holds a command's program selection flags.
type Selection struct {
	Workload string // fibonacci|ones|quicksort|queens|djpeg-ppm|djpeg-gif|djpeg-bmp
	Asm      string // an assembly file, selected instead of the workload when set
	W, I, N  int    // harness kernels: secret branches per iteration, iterations, size
	Blocks   int    // djpeg images: 8x8 blocks
	Sparsity int    // djpeg images: busy-block percentage
}

// Programs checks the selection and returns its program under a secret:
// the assembly file as assembled, or the workload built and compiled in
// mode, the only step that can still fail. A djpeg image's secret is its
// content. edit, when set, sees each workload's source program before it
// compiles.
func (c Cmd) Programs(s Selection, mode compile.Mode, edit func(*lang.Program)) func(secret uint64) (*isa.Program, error) {
	if s.Asm != "" {
		src, err := os.ReadFile(s.Asm)
		if err != nil {
			c.Fatal("%v", err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			c.Fatal("%v", err)
		}
		return func(uint64) (*isa.Program, error) { return prog, nil }
	}
	source := c.source(s)
	return func(secret uint64) (*isa.Program, error) {
		lp := source(secret)
		if edit != nil {
			edit(lp)
		}
		out, err := compile.Compile(lp, mode)
		if err != nil {
			return nil, err
		}
		return out.Prog, nil
	}
}

// source checks the workload's flags and returns its source program under
// a secret.
func (c Cmd) source(s Selection) func(secret uint64) *lang.Program {
	if name, isImage := strings.CutPrefix(s.Workload, "djpeg-"); isImage {
		format, err := jpegsim.ParseFormat(name)
		if err != nil {
			c.Fatal("unknown workload %q: %v", s.Workload, err)
		}
		c.InRange("blocks", s.Blocks, 1, jpegsim.MaxBlocks)
		c.InRange("sparsity", s.Sparsity, 0, 100)
		return func(secret uint64) *lang.Program {
			return jpegsim.BuildProgram(jpegsim.ImageSpec{
				Format: format, Blocks: s.Blocks, Sparsity: s.Sparsity, Seed: secret,
			})
		}
	}
	kind, err := workloads.Parse(s.Workload)
	if err != nil {
		c.Fatal("unknown workload %q: %v", s.Workload, err)
	}
	c.InRange("w", s.W, 1, compile.MaxSecretNesting)
	c.InRange("i", s.I, 1, workloads.MaxIters)
	c.InRange("n", s.N, 0, kind.MaxSize())
	return func(secret uint64) *lang.Program {
		return workloads.Harness(workloads.HarnessSpec{
			Kind: kind, Size: s.N, W: s.W, I: s.I, Secret: secret,
		})
	}
}
