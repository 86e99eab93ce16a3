// nesting sweeps the secret-branch nesting depth W and prints the measured
// slowdowns against the ideal (the sum of all branch-path times, ≈ W+1) —
// the paper's Fig. 10 in miniature, for one kernel on the console.
//
//	go run ./examples/nesting
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	spec := scenario.Spec{Params: map[string]string{
		"kinds": "quicksort",
		"ws":    "1,2,4,6,8,10",
		"iters": "4",
	}}
	fmt.Println("sweeping nesting depth for", spec.Params["kinds"], "(this simulates ~10M instructions)")
	sc, _ := scenario.Lookup("fig10a")
	res, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	t := &stats.Table{
		Title:  "slowdown vs. unprotected baseline",
		Header: []string{"W", "paths", "SeMPE", "SeMPE/ideal", "CTE(FaCT)", "CTE/SeMPE"},
	}
	for _, row := range res.Rows {
		r := row.(experiments.Fig10Row)
		t.AddRow(
			fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%d", r.W+1),
			stats.Ratio(r.SeMPESlowdown),
			stats.Float(r.SeMPESlowdown/r.Ideal, 2),
			stats.Ratio(r.CTESlowdown),
			stats.Ratio(r.CTESlowdown/r.SeMPESlowdown),
		)
	}
	t.Render(os.Stdout)

	fmt.Println("SeMPE grows linearly with the number of branch paths (W+1) and stays")
	fmt.Println("near the ideal; constant-time expressions grow super-linearly on top of")
	fmt.Println("a much larger constant (the oblivious-sort penalty).")
}
