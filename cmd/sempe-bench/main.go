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
// With -workers or -store set, the cluster coordinator fills each grid:
// points in the -store are never re-simulated, and the rest are sharded
// (-shard points each) across the sempe-serve -worker fleet named by
// -workers, or computed in-process when -workers is empty. Rows merge back
// in grid order, so -stable output is byte-identical to the local run:
//
//	sempe-bench -exp fig10a -quick -stable -format json \
//	    -workers http://host-a:8080,http://host-b:8080 -store results/
//
// A failed shard is re-dispatched to the surviving workers up to -attempts
// times (-timeout per request). A provenance line per filled grid counts
// the points served from the store and the shards dispatched and retried;
// -verbose adds per-shard and per-worker stats. -gc prunes the -store
// directory of other simulator versions (and entries older than -gc-age)
// and exits. -events FILE writes the run's span journal as JSON (sweep and
// point spans; probe, dispatch, retry and merge through the coordinator),
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

	"repro/internal/cluster"
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
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker goroutines per sweep, and per worker for a sharded one (1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		workersF   = flag.String("workers", "", "comma-separated sempe-serve -worker base URLs to shard sweeps across")
		storeDir   = flag.String("store", "", "persistent result-store directory (points found there are not re-simulated)")
		shardSize  = flag.Int("shard", 8, "grid points per dispatched shard")
		attempts   = flag.Int("attempts", 3, "dispatch attempts per shard before the sweep fails")
		timeout    = flag.Duration("timeout", 10*time.Minute, "per-shard request timeout")
		gc         = flag.Bool("gc", false, "garbage-collect the -store directory (stale code versions; see -gc-age) and exit")
		gcAge      = flag.Duration("gc-age", 0, "with -gc, also prune entries older than this (0 = version-based pruning only)")
		verbose    = flag.Bool("verbose", false, "print per-shard timings and per-worker throughput after each coordinated sweep")
		eventsF    = flag.String("events", "", "write the run's span journal (JSON events) to this file")
	)
	flag.Var(params, "param", "scenario parameter key=value (repeatable)")
	flag.Parse()
	start := time.Now()

	if *list {
		listScenarios()
		return
	}
	workers, err := cluster.ParseWorkers(*workersF)
	if err != nil {
		fatal("%v", err)
	}
	var st *store.Store
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
	// With a store or a fleet the coordinator fills each grid and reports
	// where its points came from.
	opts := scenario.RunOptions{Rows: scenario.NewRowCache(), Context: ctx, Journal: obs.NewJournal()}
	if len(workers) > 0 || st != nil {
		coord := cluster.New(cluster.Options{Workers: workers, ShardSize: *shardSize,
			MaxAttempts: *attempts, Timeout: *timeout, Store: st})
		opts.Compute = func(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, o scenario.RunOptions) ([]any, error) {
			rows, rep, err := coord.Rows(sc, spec, plan, o)
			printReport(sc.Name, rep, *verbose)
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

// printReport writes a coordinated sweep's provenance line — and with
// verbose its per-shard and per-worker stats — to stderr.
func printReport(name string, rep *cluster.Report, verbose bool) {
	fmt.Fprintf(os.Stderr, "%s: %d points, %d from store, %d shards in %d dispatches, %d retries\n",
		name, rep.Points, rep.StorePoints, rep.Shards, rep.Dispatched, rep.Retries)
	for _, w := range rep.DroppedWorkers {
		fmt.Fprintf(os.Stderr, "dropped worker: %s\n", w)
	}
	if !verbose {
		return
	}
	for _, ss := range rep.ShardStats {
		fmt.Fprintf(os.Stderr, "shard %d [%s]: %d points on %s, %d attempt(s), %.1fms\n",
			ss.Shard, ss.Indices, ss.Points, ss.Worker, ss.Attempts, ss.Millis)
	}
	for _, ws := range rep.WorkerStats {
		state := "healthy"
		if ws.Dropped {
			state = "dropped"
		} else if !ws.Healthy {
			state = "unreachable"
		}
		fmt.Fprintf(os.Stderr, "worker %s: %s, %d shards, %d points, %d failures, %.1fms busy, %.0f points/s\n",
			ws.URL, state, ws.Shards, ws.Points, ws.Failures, ws.BusyMillis, ws.PointsPerSec)
	}
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
