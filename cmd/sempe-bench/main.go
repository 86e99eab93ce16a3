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
// fig8/fig9) fill their grid once per invocation, on every path below.
// -cpuprofile writes a pprof profile of the whole run for simulator
// performance work.
//
// With -store set, the result store fills each grid: points it holds are
// never re-simulated, and the rest are computed in-process and persisted
// as each completes, so a failed run keeps the rows it finished. Rows land
// in grid order, so -stable output is byte-identical to the run without a
// store:
//
//	sempe-bench -exp fig10a -quick -stable -format json -store results/
//
// A provenance line per filled grid counts the points served from the
// store ("fig10a: 12 points, 12 from store" when warm). -gc prunes the
// -store directory of other simulator versions (and entries older than
// -gc-age) and exits. -events FILE writes the run's span journal as JSON
// (sweep and point spans, and a store_scan event per grid with -store),
// also when the run fails.
//
// Absolute cycle counts come from this repository's simulator, not the
// authors' gem5 testbed; EXPERIMENTS.md compares the shapes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() {
	params := scenario.ParamFlag{}
	var (
		exp        = flag.String("exp", "all", "scenario name(s), comma separated, or \"all\" (see -list)")
		list       = flag.Bool("list", false, "list registered scenarios and exit")
		format     = flag.String("format", "text", "output encoding: text|json|csv")
		quick      = flag.Bool("quick", false, "reduced sweeps (seconds, not minutes)")
		stable     = flag.Bool("stable", false, "zero timing and worker-count fields so identical specs diff byte-for-byte (json)")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker goroutines per sweep (1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		storeDir   = flag.String("store", "", "persistent result-store directory (points found there are not re-simulated)")
		gc         = flag.Bool("gc", false, "garbage-collect the -store directory (stale code versions; see -gc-age) and exit")
		gcAge      = flag.Duration("gc-age", 0, "with -gc, also prune entries older than this (0 = version-based pruning only)")
		eventsF    = flag.String("events", "", "write the run's span journal (JSON events) to this file")
	)
	flag.Var(params, "param", "scenario parameter key=value (repeatable)")
	flag.Parse()
	start := time.Now()

	if *list {
		listScenarios()
		return
	}
	var st *store.Store
	var err error
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			fatal("%v", err)
		}
	}
	if *gc {
		if st == nil {
			fatal("-gc requires -store")
		}
		rep, err := st.GC(*gcAge)
		if err != nil {
			fatal("gc: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gc %s: scanned %d, removed %d (%d stale-version, %d aged, %d corrupt), kept %d\n",
			*storeDir, rep.Scanned, rep.Removed(), rep.RemovedVersion, rep.RemovedAge, rep.RemovedCorrupt, rep.Kept)
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

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal kills immediately via the default handler
	}()

	// One row cache and one journal for the run: scenarios sharing a sweep
	// fill their grid once, and attaching the journal changes no result.
	// With a store, the store fills each grid and the run reports how many
	// of its points came from disk. Scenarios run one at a time, so the
	// store's hit count across one grid's fill is that grid's.
	opts := scenario.RunOptions{Rows: scenario.NewRowCache(), Context: ctx, Journal: obs.NewJournal()}
	if st != nil {
		opts.Compute = func(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, o scenario.RunOptions) ([]any, error) {
			hits := st.Counters().Hits
			rows, err := st.Rows(sc, spec, plan, o)
			fmt.Fprintf(os.Stderr, "%s: %d points, %d from store\n",
				sc.Name, scenario.GridSize(plan.Axes), st.Counters().Hits-hits)
			return rows, err
		}
	}

	var profile *os.File
	if *cpuprofile != "" {
		if profile, err = os.Create(*cpuprofile); err == nil {
			err = pprof.StartCPUProfile(profile)
		}
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
	}
	// fatal exits through os.Exit, which skips defers, so it calls flush:
	// a failed sweep still leaves a parseable profile and its journal.
	flush = func() {
		var err error
		if profile != nil {
			pprof.StopCPUProfile()
			err = profile.Close()
		}
		if *eventsF != "" {
			raw, jerr := json.MarshalIndent(opts.Journal.Events(), "", "  ")
			if jerr == nil {
				jerr = os.WriteFile(*eventsF, append(raw, '\n'), 0o644)
			}
			err = errors.Join(err, jerr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sempe-bench: %v\n", err)
			os.Exit(1)
		}
	}

	spec := scenario.Spec{Quick: *quick, Workers: *parallel, Params: params}
	var results []*scenario.Result
	for _, sc := range scenarios {
		fmt.Fprintf(os.Stderr, "running %s (%d workers)...\n", sc.Name, *parallel)
		res, err := scenario.Run(sc, spec, opts)
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
		var out any = results
		if len(results) == 1 {
			out = results[0]
		}
		if err := enc.Encode(out); err != nil {
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
	flush()
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

// flush writes what a run leaves behind, its CPU profile and its -events
// journal. main sets it once both are set up.
var flush = func() {}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-bench: "+format+"\n", args...)
	flush()
	os.Exit(1)
}
