package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagsExit1: -w 0 used to panic building the harness, and a gap of
// 1e9 simulated one attack trial for hours; each must exit 1 at once
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
