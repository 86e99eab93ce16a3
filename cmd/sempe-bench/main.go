// Command sempe-bench regenerates the paper's tables and figures — and any
// other registered evaluation scenario — through the scenario registry:
//
//	sempe-bench -list                   # registered scenarios and their axes
//	sempe-bench -exp table2             # baseline configuration echo
//	sempe-bench -exp fig8               # djpeg overhead grid
//	sempe-bench -exp fig9               # cache miss rates
//	sempe-bench -exp fig10a -quick      # microbenchmark slowdowns (subset)
//	sempe-bench -exp fig10b,table1      # several scenarios in one run
//	sempe-bench -exp leakmatrix         # side-channel distinguisher matrix
//	sempe-bench -exp all
//
// Scenarios are parameterized with repeated -param flags (axes and knobs
// are scenario-specific; -list names them):
//
//	sempe-bench -exp fig10a -param kinds=fibonacci,queens -param ws=1,4
//
// -format selects the output encoding: text (the paper-shaped tables),
// json (structured results, typed cells), or csv. Each grid point of a
// sweep simulates on an independent core, so the sweeps fan out across
// -parallel worker goroutines (default: all CPUs) with bit-identical
// results to a serial run; scenarios sharing a sweep (fig10a/fig10b/table1,
// fig8/fig9) simulate their grid once per invocation. -cpuprofile writes a
// pprof profile of the whole run for simulator performance work.
//
// Absolute cycle counts come from this repository's simulator, not the
// authors' gem5 testbed; EXPERIMENTS.md compares the shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/scenario"
)

func main() {
	params := scenario.ParamFlag{}
	var (
		exp        = flag.String("exp", "all", "scenario name(s), comma separated, or \"all\" (see -list)")
		list       = flag.Bool("list", false, "list registered scenarios and exit")
		format     = flag.String("format", "text", "output encoding: text|json|csv")
		quick      = flag.Bool("quick", false, "reduced sweeps (seconds, not minutes)")
		stable     = flag.Bool("stable", false, "zero timing and worker-count fields so identical specs diff byte-for-byte (json)")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the sweeps (1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	)
	flag.Var(params, "param", "scenario parameter key=value (repeatable)")
	flag.Parse()
	start := time.Now()

	if *list {
		listScenarios()
		return
	}

	var scenarios []*scenario.Scenario
	if *exp == "all" {
		scenarios = scenario.Scenarios()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			sc, ok := scenario.Lookup(strings.TrimSpace(name))
			if !ok {
				fatal("unknown experiment %q; registered scenarios: %s",
					name, strings.Join(scenario.Names(), ", "))
			}
			scenarios = append(scenarios, sc)
		}
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fatal("unknown format %q (want text, json, or csv)", *format)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		// fatal() exits via os.Exit, which skips defers; route the profile
		// flush through stopProfile so a failed sweep still writes a
		// parseable profile of everything that ran.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	spec := scenario.Spec{Quick: *quick, Workers: *parallel, Params: params}
	// One row cache per invocation: scenarios sharing a sweep (fig10a,
	// fig10b, table1) simulate their grid once.
	rows := scenario.NewRowCache()
	var results []*scenario.Result
	for _, sc := range scenarios {
		fmt.Fprintf(os.Stderr, "running %s (%d workers)...\n", sc.Name, *parallel)
		res, err := scenario.Run(sc, spec, scenario.RunOptions{Rows: rows})
		if err != nil {
			fatal("%v", err)
		}
		if *stable {
			res = res.Stable()
		}
		results = append(results, res)
	}

	switch *format {
	case "text":
		for _, res := range results {
			for _, t := range res.Tables {
				t.Render(os.Stdout)
			}
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(results) == 1 {
			err := enc.Encode(results[0])
			if err != nil {
				fatal("json: %v", err)
			}
		} else if err := enc.Encode(results); err != nil {
			fatal("json: %v", err)
		}
	case "csv":
		for _, res := range results {
			for _, t := range res.Tables {
				if err := t.WriteCSV(os.Stdout); err != nil {
					fatal("csv: %v", err)
				}
				fmt.Println()
			}
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start))
}

func listScenarios() {
	for _, sc := range scenario.Scenarios() {
		fmt.Printf("%-12s %s\n", sc.Name, sc.Description)
		if plan, err := sc.Sweep.Plan(scenario.Spec{}); err == nil {
			for _, a := range plan.Axes {
				fmt.Printf("             axis %s: %s\n", a.Name, strings.Join(a.Values, " "))
			}
		}
	}
}

// stopProfile flushes the CPU profile, if one is active. Replaced by main
// when -cpuprofile is set.
var stopProfile = func() {}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-bench: "+format+"\n", args...)
	stopProfile()
	os.Exit(1)
}
