// Command bench is the SeMPE stack's benchmark: four workloads — the
// paper's sweep, key extraction, and the evaluation service's read and
// write paths — each run in a fresh worker process, with every end-to-end
// metric printed as "workload metric value unit" and every output checked.
//
//	bench -seed 1                          # all workloads, untraced
//	bench -seed 1 -trace 1                 # ... then each again, traced
//	bench --workload serve-read --seed 2 --seconds 15 --trace 0
//	bench -seed 1 -out a1.json             # also write a run record
//	bench -compare a1.json,a2.json b1.json,b2.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics,
// or with -trace 1 the per-layer ones. The command exits non-zero when any
// output is wrong or any operation fails. README.md describes the
// workloads, the metrics and how to read a comparison.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the scenarios the workloads run
)

// childTimeout bounds one worker process, so that a run with its set-ups
// ends within three minutes.
const childTimeout = 150 * time.Second

// defaultSeconds is the budget the workloads' sizes are chosen for
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 15

type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	work     string
}

// record is what -out writes and -compare reads.
type record struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
	Traced    map[string]*result `json:"traced,omitempty"`
}

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "seed every workload input is drawn from")
		seconds   = flag.Float64("seconds", defaultSeconds, "budget that sets each workload's amount of work: about the measured phase's length on the calibration host")
		name      = flag.String("workload", "", "run only this workload and end with its JSON result line")
		trace     = flag.Int("trace", 0, "1: with -workload, run traced and report per-layer metrics; otherwise also run each workload traced")
		traceDir  = flag.String("trace-dir", ".bench_build/trace", "where traced runs write <workload>.trace.json")
		work      = flag.String("work", ".bench_build/work", "scratch directory for result stores")
		out       = flag.String("out", "", "write the run record (all results) to this file")
		compareA  = flag.String("compare", "", "comma-separated parent run records; the change's follow as the argument")
		child     = flag.String("child", "", "internal: run as the worker process of this workload")
		setupOnly = flag.Bool("setup-only", false, "internal: worker process stops once set up")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal("-trace must be 0 or 1")
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, work: *work}

	switch {
	case *child != "":
		w, ok := findWorkload(*child)
		if !ok {
			fatal("unknown workload %q", *child)
		}
		e := &env{seed: opts.seed, seconds: opts.seconds, trace: opts.trace, traceDir: opts.traceDir, workDir: opts.work}
		if err := runChild(w, e, *setupOnly, os.Stdout); err != nil {
			fatal("%s: %v", w.name, err)
		}
	case *compareA != "":
		if flag.NArg() != 1 {
			fatal("-compare A1.json,A2.json,... B1.json,B2.json,...")
		}
		failed, err := compare(os.Stdout, strings.Split(*compareA, ","), strings.Split(flag.Arg(0), ","))
		if err != nil {
			fatal("%v", err)
		}
		if failed {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		res, err := measure(w, opts, opts.trace)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		defs := endToEnd
		if opts.trace {
			defs = perLayer
		}
		printResult(w.name, defs, res)
		rec := &record{Seed: opts.seed, Seconds: opts.seconds}
		if results := map[string]*result{w.name: res}; opts.trace {
			rec.Traced = results
		} else {
			rec.Workloads = results
		}
		writeRecord(*out, rec)
		line, err := res.contractLine()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct || res.Failed > 0 {
			os.Exit(1)
		}
	default:
		if !runAll(opts, *out) {
			os.Exit(1)
		}
	}
}

// runAll runs every workload untraced, then, with -trace 1, each again
// traced, and reports whether every output was correct.
func runAll(opts options, out string) bool {
	rec := &record{Seed: opts.seed, Seconds: opts.seconds, Workloads: map[string]*result{}, Traced: map[string]*result{}}
	ok := true
	for _, w := range allWorkloads {
		res, err := measure(w, opts, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			ok = false
			continue
		}
		rec.Workloads[w.name] = res
		printResult(w.name, endToEnd, res)
		ok = ok && res.Correct && res.Failed == 0
	}
	for _, w := range allWorkloads {
		if !opts.trace {
			break
		}
		res, err := measure(w, opts, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (traced): %v\n", w.name, err)
			ok = false
			continue
		}
		rec.Traced[w.name] = res
		printResult(w.name, perLayer, res)
		if base := rec.Workloads[w.name]; base != nil {
			fmt.Printf("%s trace_overhead_pct %.2f %%\n", w.name, 100*(ratio(res.MeanOpMS, base.MeanOpMS)-1))
		}
		ok = ok && res.Correct && res.Failed == 0
	}
	writeRecord(out, rec)
	return ok
}

func printResult(name string, defs []metricDef, res *result) {
	printLines(os.Stdout, name, defs, res.Metrics)
	printLines(os.Stdout, name, outcomeMetrics, res.Outcome)
	for _, k := range slices.Sorted(maps.Keys(res.Notes)) {
		fmt.Printf("%s %s %s\n", name, k, res.Notes[k])
	}
	fmt.Printf("%s correct %t (%d attempted, %d failed)\n", name, res.Correct, res.Attempted, res.Failed)
}

// measure runs one workload in fresh worker processes. Untraced, it
// starts w.setups of them — all but the last stop once set up — and adds
// setup_s, their median spawn-to-ready time scaled to reference host speed
// by samples taken after each set-up-only worker exits, to the last one's
// result. Traced, it starts one.
func measure(w workload, opts options, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n, traceArg := w.setups, "0"
	if trace {
		n, traceArg = 1, "1"
	}
	var readyS []float64
	var host hostSpeed
	for i := 0; i < n; i++ {
		args := []string{"-child", w.name, "-seed", strconv.FormatUint(opts.seed, 10),
			"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "-trace", traceArg,
			"-trace-dir", opts.traceDir, "-work", opts.work}
		if i < n-1 {
			args = append(args, "-setup-only")
		}
		res, ready, err := runWorker(self, args)
		if err != nil {
			return nil, err
		}
		readyS = append(readyS, ready.Seconds())
		if res != nil {
			if !trace {
				raw := median(readyS)
				res.Metrics["setup_s"] = value{raw * host.factor(), "s"}
				if res.Notes == nil {
					res.Notes = map[string]string{}
				}
				res.Notes["raw_setup_s"] = strconv.FormatFloat(raw, 'g', 6, 64)
			}
			return res, nil
		}
		for range 3 {
			host.sample()
		}
	}
	return nil, errors.New("worker process printed no result")
}

// runWorker starts one worker process and waits for it to exit. It
// returns the time from start to the worker's "ready" line and the result
// line that follows, if any.
func runWorker(self string, args []string) (*result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ready time.Duration
	var res *result
	var perr error
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case ready == 0 && string(line) == "ready":
			ready = time.Since(start)
		case ready != 0 && res == nil:
			res = &result{}
			if err := json.Unmarshal(line, res); err != nil {
				perr = fmt.Errorf("worker result: %w", err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("worker %v: %w", args, err)
	}
	if perr != nil {
		return nil, 0, perr
	}
	if ready == 0 {
		return nil, 0, errors.New("worker never reported ready")
	}
	return res, ready, nil
}

func writeRecord(path string, rec *record) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal("writing %s: %v", path, err)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
