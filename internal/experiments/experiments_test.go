package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workloads"
)

// TestFig10Shape runs a reduced sweep and asserts the paper's qualitative
// results: SeMPE slowdown grows roughly linearly with the number of branch
// paths and stays near the ideal; CTE is always costlier than SeMPE and
// grows super-linearly; quicksort/queens carry larger CTE constants than
// fibonacci.
func TestFig10Shape(t *testing.T) {
	all, err := runRows("fig10a", scenario.Spec{Params: map[string]string{
		"kinds": "fibonacci,quicksort", "ws": "1,4", "iters": "4"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := narrow[Fig10Row](all)
	byKey := map[string]Fig10Row{}
	for _, r := range rows {
		byKey[r.Kind.String()+string(rune('0'+r.W))] = r
	}
	fib1, fib4 := byKey["fibonacci1"], byKey["fibonacci4"]
	qs1, qs4 := byKey["quicksort1"], byKey["quicksort4"]

	// SeMPE grows with W.
	if fib4.SeMPESlowdown <= fib1.SeMPESlowdown || qs4.SeMPESlowdown <= qs1.SeMPESlowdown {
		t.Errorf("SeMPE slowdown not increasing with W: fib %.2f->%.2f qs %.2f->%.2f",
			fib1.SeMPESlowdown, fib4.SeMPESlowdown, qs1.SeMPESlowdown, qs4.SeMPESlowdown)
	}
	// SeMPE near ideal (within 2x either way).
	for _, r := range rows {
		n := r.SeMPESlowdown / r.Ideal
		if n < 0.3 || n > 2.0 {
			t.Errorf("%v W=%d: SeMPE/ideal = %.2f, expected near 1", r.Kind, r.W, n)
		}
	}
	// CTE always costs more than SeMPE.
	for _, r := range rows {
		if r.CTESlowdown <= r.SeMPESlowdown {
			t.Errorf("%v W=%d: CTE %.2f <= SeMPE %.2f", r.Kind, r.W, r.CTESlowdown, r.SeMPESlowdown)
		}
	}
	// Quicksort's CTE constant dwarfs fibonacci's (the oblivious-sort
	// penalty, paper: fib ~3x vs queens ~32x at W=1).
	if qs1.CTESlowdown < 2*fib1.CTESlowdown {
		t.Errorf("CTE at W=1: quicksort %.2f not >> fibonacci %.2f",
			qs1.CTESlowdown, fib1.CTESlowdown)
	}
}

// TestFig8Shape asserts the djpeg results: positive overheads under ~100%,
// ordered PPM > GIF > BMP, and approximately size-independent.
func TestFig8Shape(t *testing.T) {
	// 16 and 32 blocks keep the test fast.
	all, err := runRows("fig8", scenario.Spec{Params: map[string]string{"sizes": "256k,512k"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := narrow[Fig8Row](all)
	byFmt := map[string][]Fig8Row{}
	for _, r := range rows {
		byFmt[r.Format.String()] = append(byFmt[r.Format.String()], r)
		if r.Overhead < 0.05 || r.Overhead > 1.2 {
			t.Errorf("%v/%s overhead %.2f outside the plausible band", r.Format, r.Size, r.Overhead)
		}
	}
	if byFmt["PPM"][0].Overhead <= byFmt["GIF"][0].Overhead {
		t.Errorf("PPM overhead %.2f <= GIF %.2f", byFmt["PPM"][0].Overhead, byFmt["GIF"][0].Overhead)
	}
	if byFmt["GIF"][0].Overhead <= byFmt["BMP"][0].Overhead {
		t.Errorf("GIF overhead %.2f <= BMP %.2f", byFmt["GIF"][0].Overhead, byFmt["BMP"][0].Overhead)
	}
	// Size insensitivity: the two sizes agree within 15 points.
	for f, rs := range byFmt {
		if len(rs) == 2 {
			d := rs[0].Overhead - rs[1].Overhead
			if d < -0.15 || d > 0.15 {
				t.Errorf("%s: overhead varies with size: %.2f vs %.2f", f, rs[0].Overhead, rs[1].Overhead)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	rows := []Fig10Row{{
		Kind: workloads.Fibonacci, W: 1,
		BaseCycles: 100, SeMPECycles: 190, CTECycles: 400,
		SeMPESlowdown: 1.9, CTESlowdown: 4.0, Ideal: 2,
	}}
	var sb strings.Builder
	RenderFig10a(rows).Render(&sb)
	RenderFig10b(rows).Render(&sb)
	Table1(rows).Render(&sb)
	Table2().Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 10a", "Figure 10b", "Table I", "Table II",
		"1.90x", "4.00x", "TAGE", "Raccoon", "192"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
