package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/sempe"
)

// TestEmulatorMatchesCoreOnEdgePrograms holds the emulator and the core to
// one answer on programs at the edges of the architecture, in both modes.
// Where the emulator halts, the core halts with the same registers, memory
// and count of downgraded nesting overflows; where it fails, the core fails
// with the same sempe error. A PC outside the program image is the
// emulator's ErrFetch and the core's watchdog, since its fetch waits there
// for a redirect that never comes. Both take the core's jbTable depth, so a
// nest two levels deeper than a small table faults on both, or is
// downgraded on both.
func TestEmulatorMatchesCoreOnEdgePrograms(t *testing.T) {
	storeIntoCode := asm.MustAssemble(`
		main:
			li   r9, 0
		patch:
			li   r8, 5
			add  r10, r10, r8
			addi r9, r9, 1
			la   r11, patch
			li   r12, 7
			stb  r12, [r11+4]
			li   r13, 2
			blt  r9, r13, patch
			halt
	`)
	// The data word's bytes decode as HALT; only the image holds code.
	jumpOutside := asm.MustAssemble(`
		.word w 1
		main:
			la   r8, w
			jalr rz, r8
			halt
	`)
	eosWithoutSJmp := asm.MustAssemble(`
		main:
			eosjmp
			halt
	`)
	type edgeCase struct {
		name              string
		prog              *isa.Program
		slots             int // jbTable depth; 0 keeps the config's 30
		overflowNonSecure bool
		want              [2]error // emulator's error in Legacy, SeMPE mode
	}
	cases := []edgeCase{
		{"store-into-code", storeIntoCode, 0, false, [2]error{nil, nil}},
		{"jump-outside-image", jumpOutside, 0, false, [2]error{emu.ErrFetch, emu.ErrFetch}},
		{"eosjmp-without-sjmp", eosWithoutSJmp, 0, false, [2]error{nil, sempe.ErrUnderflow}},
		{"nest31-fault", deepNestProg(31), 0, false, [2]error{nil, sempe.ErrOverflow}},
		{"nest31-downgrade", deepNestProg(31), 0, true, [2]error{nil, nil}},
	}
	for _, slots := range []int{2, 4, 8, 16} {
		nest := fmt.Sprintf("slots%d/nest%d", slots, slots+2)
		cases = append(cases,
			edgeCase{nest + "-fault", deepNestProg(slots + 2), slots, false, [2]error{nil, sempe.ErrOverflow}},
			edgeCase{nest + "-downgrade", deepNestProg(slots + 2), slots, true, [2]error{nil, nil}})
	}
	arches := []struct {
		name string
		cfg  Config
		mode emu.Mode
	}{
		{"baseline", DefaultConfig(), emu.Legacy},
		{"sempe", SecureConfig(), emu.SeMPE},
	}
	for ai, a := range arches {
		for _, tc := range cases {
			t.Run(a.name+"/"+tc.name, func(t *testing.T) {
				cfg := a.cfg
				if tc.slots > 0 {
					cfg.SPM.Slots = tc.slots
				}
				cfg.OverflowNonSecure = tc.overflowNonSecure
				m := emu.New(a.mode, tc.prog, cfg.SPM.Slots)
				m.OverflowNonSecure = tc.overflowNonSecure
				emuErr := m.Run()
				core := New(cfg, tc.prog)
				coreErr := core.Run()

				want, wantCore := tc.want[ai], tc.want[ai]
				if want == emu.ErrFetch {
					wantCore = ErrDeadlock
				}
				if !errors.Is(emuErr, want) || !errors.Is(coreErr, wantCore) {
					t.Fatalf("emulator err %v, core err %v; want %v and %v", emuErr, coreErr, want, wantCore)
				}
				for _, e := range []error{sempe.ErrOverflow, sempe.ErrUnderflow} {
					if errors.Is(emuErr, e) != errors.Is(coreErr, e) {
						t.Errorf("emulator err %v, core err %v: only one names %v", emuErr, coreErr, e)
					}
				}
				if want != nil {
					return
				}
				if regs := core.ArchRegs(); regs != m.Regs {
					t.Errorf("core registers %v, emulator %v", regs, m.Regs)
				}
				if addr, diff := core.Mem().FirstDiff(m.Mem); diff {
					t.Errorf("memories differ at %#x", addr)
				}
				if core.Stats.NestOverflows != m.NestOverflows {
					t.Errorf("core downgraded %d nesting overflows, emulator %d", core.Stats.NestOverflows, m.NestOverflows)
				}
			})
		}
	}
}

// TestWheelCoversEveryLatency: New sizes the completion wheel past every
// latency execute can charge, so each op is filed less than one wheel turn
// ahead of the clock that issues it. A memory-bound chase, whose first
// loads miss every cache level, charges the longest of them and must match
// the emulator, at extreme latencies too.
func TestWheelCoversEveryLatency(t *testing.T) {
	extreme := DefaultConfig()
	extreme.Caches.MemLatency = 4000
	extreme.Caches.L2.HitLatency = 100
	extreme.LatDiv = 300
	for _, tc := range []struct {
		name string
		cfg  Config
		mode emu.Mode
	}{
		{"default", DefaultConfig(), emu.Legacy},
		{"secure", SecureConfig(), emu.SeMPE},
		{"extreme", extreme, emu.Legacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, prog := tc.cfg, chaseProg()
			c := New(cfg, prog)
			loadToMemory := cfg.LatAGU + cfg.Caches.DL1.HitLatency + cfg.Caches.L2.HitLatency + cfg.Caches.MemLatency
			for _, lat := range []int{
				cfg.LatALU, cfg.LatMul, cfg.LatDiv, cfg.LatBranch,
				cfg.LatAGU,     // store
				cfg.LatAGU + 1, // forwarded load
				loadToMemory,
			} {
				if lat < 1 || uint64(lat) > c.calMask {
					t.Errorf("latency %d outside the wheel's 1..%d", lat, c.calMask)
				}
			}

			longest := 0
			c.SetSpecWatch(func(e SpecEvent) {
				if e.Kind == SpecMemExec && !e.Write {
					longest = max(longest, cfg.LatAGU+int(e.Lat))
				}
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if longest != loadToMemory {
				t.Errorf("longest load charged %d cycles, want a miss to memory at %d", longest, loadToMemory)
			}
			m := emu.New(tc.mode, prog, cfg.SPM.Slots)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if regs := c.ArchRegs(); regs != m.Regs {
				t.Errorf("core registers %v, emulator %v", regs, m.Regs)
			}
			if addr, diff := c.Mem().FirstDiff(m.Mem); diff {
				t.Errorf("memories differ at %#x", addr)
			}
		})
	}
}
