package cli

import (
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

const cmd = Cmd("cli.test")

func mustProgram(t *testing.T, build func(uint64) (*isa.Program, error), secret uint64) *isa.Program {
	t.Helper()
	prog, err := build(secret)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func compiled(t *testing.T, lp *lang.Program, mode compile.Mode) *isa.Program {
	t.Helper()
	out, err := compile.Compile(lp, mode)
	if err != nil {
		t.Fatal(err)
	}
	return out.Prog
}

// TestMachine: -arch picks the core and, unless -compile overrides it, the
// matching compile mode.
func TestMachine(t *testing.T) {
	for _, tc := range []struct {
		arch, mode string
		cfg        pipeline.Config
		want       compile.Mode
	}{
		{"baseline", "", pipeline.DefaultConfig(), compile.Plain},
		{"sempe", "", pipeline.SecureConfig(), compile.SeMPE},
		{"sempe", "plain", pipeline.SecureConfig(), compile.Plain},
		{"baseline", "sempe", pipeline.DefaultConfig(), compile.SeMPE},
		{"baseline", "cte", pipeline.DefaultConfig(), compile.CTE},
	} {
		cfg, mode := cmd.Machine(tc.arch, tc.mode)
		if !reflect.DeepEqual(cfg, tc.cfg) || mode != tc.want {
			t.Errorf("Machine(%q, %q) = SeMPE core %t, %v; want %t, %v",
				tc.arch, tc.mode, cfg.SeMPE, mode, tc.cfg.SeMPE, tc.want)
		}
	}
}

// TestProgramsBuildTheSelection: a djpeg image's secret is its content
// seed and a harness's secret its branch input, each built exactly as the
// scenario specs build them; size 0 is the kernel's default.
func TestProgramsBuildTheSelection(t *testing.T) {
	image := Selection{Workload: "djpeg-gif", Blocks: 8, Sparsity: 50}
	got := mustProgram(t, cmd.Programs(image, compile.SeMPE, nil), 11)
	want := compiled(t, jpegsim.BuildProgram(jpegsim.ImageSpec{
		Format: jpegsim.GIF, Blocks: 8, Sparsity: 50, Seed: 11,
	}), compile.SeMPE)
	if !reflect.DeepEqual(got, want) {
		t.Error("djpeg-gif under secret 11 differs from the image of seed 11")
	}

	kernel := Selection{Workload: "queens", W: 2, I: 3}
	got = mustProgram(t, cmd.Programs(kernel, compile.Plain, nil), 5)
	want = compiled(t, workloads.Harness(workloads.HarnessSpec{
		Kind: workloads.Queens, Size: workloads.Queens.DefaultSize(), W: 2, I: 3, Secret: 5,
	}), compile.Plain)
	if !reflect.DeepEqual(got, want) {
		t.Error("queens -w 2 -i 3 under secret 5 differs from its harness")
	}

	edited := 0
	cmd.Programs(kernel, compile.Plain, func(*lang.Program) { edited++ })(0)
	if edited != 1 {
		t.Errorf("edit ran %d times for one build, want 1", edited)
	}
}

// TestMaxSizeCompiles: every kernel at its largest accepted -n compiles
// for both cores at -w 1 -i 1, the point whose run time sets the bound.
func TestMaxSizeCompiles(t *testing.T) {
	for _, kind := range workloads.All() {
		sel := Selection{Workload: kind.String(), W: 1, I: 1, N: kind.MaxSize()}
		for _, mode := range []compile.Mode{compile.Plain, compile.SeMPE} {
			if _, err := cmd.Programs(sel, mode, nil)(0); err != nil {
				t.Errorf("%v -n %d in %v: %v", kind, kind.MaxSize(), mode, err)
			}
		}
	}
}
