// Command sempe-asm assembles or disassembles programs for the simulated
// ISA:
//
//	sempe-asm prog.s            # assemble and print a summary
//	sempe-asm -d prog.s         # assemble, then print the disassembly
//	sempe-asm -run prog.s       # assemble and execute on the emulator
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func main() {
	var (
		dis    = flag.Bool("d", false, "print disassembly")
		run    = flag.Bool("run", false, "execute on the functional emulator")
		secure = flag.Bool("sempe", false, "emulate with SeMPE semantics (with -run)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sempe-asm [-d] [-run [-sempe]] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal("%v", err)
	}
	sjmp, eos := prog.CountSecure()
	fmt.Printf("%s: %d code bytes, entry %#x, %d sJMP, %d eosJMP\n",
		flag.Arg(0), len(prog.Code), prog.Entry, sjmp, eos)
	if *dis {
		fmt.Print(prog.Disassemble())
	}
	if *run {
		mode := emu.Legacy
		if *secure {
			mode = emu.SeMPE
		}
		m := emu.New(mode, prog, mem.DefaultSPMConfig().Slots)
		if err := m.Run(); err != nil {
			fatal("run: %v", err)
		}
		fmt.Printf("halted after %d instructions (%d branches, %d sJMP, %d eosJMP)\n",
			m.Insts, m.Branches, m.SJmps, m.EOSJmps)
		for r := isa.Reg(8); r < 16; r++ {
			fmt.Printf("  %v = %d (%#x)\n", r, m.Regs[r], m.Regs[r])
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-asm: "+format+"\n", args...)
	os.Exit(1)
}
