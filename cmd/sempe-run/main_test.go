package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadWorkloadFlagsExit1: each flag set below used to panic (a harness
// of W < 1, an image with no blocks, a sparsity outside [0,100] slicing
// past the block list), exhaust memory or run for hours (a billion
// iterations, a 40-queens board); each must exit 1 naming the flag and its
// range.
func TestBadWorkloadFlagsExit1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "0"}, "sempe-run: -w: 0 out of range [1,30]"},
		{[]string{"-w", "100000"}, "sempe-run: -w: 100000 out of range [1,30]"},
		{[]string{"-workload", "djpeg-ppm", "-blocks", "0"}, "sempe-run: -blocks: 0 out of range [1,4096]"},
		{[]string{"-workload", "djpeg-ppm", "-blocks", "100000000"}, "sempe-run: -blocks: 100000000 out of range [1,4096]"},
		{[]string{"-workload", "djpeg-ppm", "-sparsity", "-5"}, "sempe-run: -sparsity: -5 out of range [0,100]"},
		{[]string{"-workload", "djpeg-ppm", "-sparsity", "1000"}, "sempe-run: -sparsity: 1000 out of range [0,100]"},
		{[]string{"-workload", "djpeg-tiff"}, `sempe-run: unknown workload "djpeg-tiff"`},
		{[]string{"-workload", "sorting"}, `sempe-run: unknown workload "sorting"`},
		{[]string{"-i", "0"}, "sempe-run: -i: 0 out of range [1,64]"},
		{[]string{"-workload", "quicksort", "-w", "1", "-i", "1000000000"}, "sempe-run: -i: 1000000000 out of range [1,64]"},
		{[]string{"-workload", "queens", "-n", "40", "-w", "1", "-i", "1"}, "sempe-run: -n: 40 out of range [0,8]"},
		{[]string{"-workload", "fibonacci", "-n", "100000000", "-w", "1", "-i", "1"}, "sempe-run: -n: 100000000 out of range [0,200000]"},
		{[]string{"-workload", "quicksort", "-n", "-1"}, "sempe-run: -n: -1 out of range [0,8192]"},
		{[]string{"-arch", "sempe2"}, `sempe-run: unknown -arch "sempe2"`},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
	if code, out := clitest.Run(t, "-workload", "djpeg-bmp", "-blocks", "1", "-sparsity", "100"); code != 0 {
		t.Errorf("a valid flag set: exit %d, output:\n%s", code, out)
	}
}
