package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagsExit1: -w 0 used to panic building the harness, a trace ring
// of 1e12 events exhausted memory, and a gap of 1e9, a billion iterations
// or a 40-queens board simulated for hours; each must exit 1 at once
// naming the parameter and its range.
func TestBadFlagsExit1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "0"}, "sempe-trace: -w: 0 out of range [1,30]"},
		{[]string{"-w", "0", "-diff-secret", "1"}, "sempe-trace: -w: 0 out of range [1,30]"},
		{[]string{"-workload", "sorting"}, `sempe-trace: unknown workload "sorting"`},
		{[]string{"-attacker", "bp", "-gap", "1000000000"}, "gap: 1000000000 out of range [0,4096]"},
		{[]string{"-workload", "ones", "-w", "1", "-i", "1", "-cap", "1000000000000"}, "sempe-trace: -cap: 1000000000000 out of range [1,16777216]"},
		{[]string{"-attacker", "bp", "-cap", "0"}, "sempe-trace: -cap: 0 out of range [1,16777216]"},
		{[]string{"-workload", "quicksort", "-w", "1", "-i", "1000000000"}, "sempe-trace: -i: 1000000000 out of range [1,64]"},
		{[]string{"-workload", "queens", "-n", "40", "-w", "1", "-i", "1"}, "sempe-trace: -n: 40 out of range [0,8]"},
		{[]string{"-workload", "ones", "-n", "48001", "-diff-secret", "1"}, "sempe-trace: -n: 48001 out of range [0,48000]"},
		{[]string{"-workload", "djpeg-ppm", "-blocks", "0"}, "sempe-trace: -blocks: 0 out of range [1,4096]"},
		{[]string{"-workload", "djpeg-gif", "-sparsity", "1000"}, "sempe-trace: -sparsity: 1000 out of range [0,100]"},
		{[]string{"-arch", "sempe2"}, `sempe-trace: unknown -arch "sempe2"`},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
	if code, out := clitest.Run(t, "-workload", "ones", "-w", "1", "-i", "1", "-json", t.TempDir()+"/trace.json"); code != 0 {
		t.Errorf("a valid flag set: exit %d, output:\n%s", code, out)
	}
}

// TestDjpegDiffSecret: two djpeg images' wrong-path touch sets are
// identical under SeMPE and differ on the unprotected baseline.
func TestDjpegDiffSecret(t *testing.T) {
	for arch, want := range map[string]string{"sempe": "IDENTICAL", "baseline": "DIFFER"} {
		code, out := clitest.Run(t, "-workload", "djpeg-ppm", "-blocks", "4", "-secret", "1", "-diff-secret", "2", "-arch", arch)
		if code != 0 || !strings.Contains(out, "wrong-path touch sets "+want) {
			t.Errorf("-arch %s: exit %d, output:\n%s\nwant exit 0 and touch sets %s", arch, code, out, want)
		}
	}
}
