package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadWorkloadFlagsExit1: -w 0 used to panic building the harness,
// 100000000 blocks asked for a 51 GB image, and a billion iterations ran
// for hours; each must exit 1 naming the flag and its range.
func TestBadWorkloadFlagsExit1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "0"}, "sempe-leak: -w: 0 out of range [1,30]"},
		{[]string{"-workload", "djpeg-ppm", "-blocks", "0"}, "sempe-leak: -blocks: 0 out of range [1,4096]"},
		{[]string{"-workload", "djpeg-ppm", "-blocks", "100000000"}, "sempe-leak: -blocks: 100000000 out of range [1,4096]"},
		{[]string{"-i", "0"}, "sempe-leak: -i: 0 out of range [1,64]"},
		{[]string{"-w", "1", "-i", "1000000000"}, "sempe-leak: -i: 1000000000 out of range [1,64]"},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
	code, out := clitest.Run(t, "-workload", "ones", "-w", "1", "-i", "1")
	if code != 0 || !strings.Contains(out, "RESULT: SeMPE closes every observed channel") {
		t.Errorf("a valid flag set: exit %d, output:\n%s", code, out)
	}
}
