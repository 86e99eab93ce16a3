package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadExtractionFlagsExit1: a gap of 1e9 compiled and then simulated a
// single trial for hours; it and a key too wide must exit 1 at once naming
// the parameter and its range.
func TestBadExtractionFlagsExit1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-victim", "keyloop", "-bits", "1", "-trials", "1", "-gap", "1000000000"}, "gap: 1000000000 out of range [0,4096]"},
		{[]string{"-victim", "keyloop", "-bits", "40"}, "width: 40 out of range [1,31]"},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
}
