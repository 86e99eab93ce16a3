package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set. Names are fixed: later changes cite
// them, and BENCHMARK.json says why each was chosen. tailQ is the
// percentile latency_tail_ms reports over the operations' times:
// tailQuantile of the number of distinct operations. setups is how many
// worker processes a measured run starts, all but the last stopping once
// set up; setup_s is the median of their spawn-to-ready times. A set-up of
// a few milliseconds jitters by a third from one spawn to the next, so
// those workloads take the median of many.
type workload struct {
	name   string
	tailQ  float64
	setups int
	run    func(e *env) (*outcome, error)
}

var allWorkloads = []workload{
	{
		name:   "paper-sweep",
		tailQ:  0.8, // 52 grid points
		setups: 31,  // about 3 ms each
		run:    runPaperSweep,
	},
	{
		name:   "keyextract",
		tailQ:  0.5, // 12 row shapes: too few for a tail, so the median
		setups: 31,  // about 3 ms each
		run:    runKeyExtract,
	},
	{
		name:   "serve-read",
		tailQ:  0.99, // 1500 requests at 100/s for 15 s
		setups: 7,    // about 0.8 s each: 128 specs computed into the store
		run:    runServeRead,
	},
	{
		name:   "serve-write",
		tailQ:  0.8, // 52 request shapes, each about four times in 15 s
		setups: 31,  // about 4 ms each
		run:    runServeWrite,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload run is given: the seed its inputs come from, its
// time budget, and where it may write.
type env struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
	// tiny shrinks every input to a smoke-test size (tests only).
	tiny bool
	// ready is called once set-up is done, just before the measured phase.
	// A workload returns its error at once: errSetupOnly means the process
	// was started only to time set-up.
	ready func() error
}

var errSetupOnly = errors.New("set-up only")

func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// tempDir makes a scratch directory under the work directory.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workDir, prefix+"-")
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	ops       []opSample
	host      hostSpeed
	scale     float64 // host-speed factor applied to the times (1: raw)
	latencyMS float64 // the workload's latency_ms, set by its run
	// throughput is work items per second.
	throughput float64
	wall       time.Duration      // of the measured (or traced) phase
	results    map[string]float64 // outcomeMetrics values
	notes      map[string]string
	layers     map[string]float64 // traced runs: perLayer values
	spans      []span
}

// opSample is one timed operation. Operations that repeat the same work
// share a key: a grid point in every pass, a key-extraction row shape with
// each pass's key, a write request shape with fresh secrets.
type opSample struct {
	key string
	ms  float64
}

func newOutcome() *outcome {
	return &outcome{scale: 1, results: map[string]float64{}, notes: map[string]string{}, layers: map[string]float64{}}
}

func (o *outcome) addOp(key string, ms float64) { o.ops = append(o.ops, opSample{key, ms}) }

// byOp groups the operations' times by key, in order of first appearance.
func (o *outcome) byOp() [][]float64 {
	index := map[string]int{}
	var out [][]float64
	for _, s := range o.ops {
		i, ok := index[s.key]
		if !ok {
			i = len(out)
			index[s.key] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s.ms)
	}
	return out
}

// opLatencies is each operation's median time over its repetitions.
func (o *outcome) opLatencies() []float64 {
	var out []float64
	for _, ms := range o.byOp() {
		out = append(out, median(ms))
	}
	return out
}

// typicalMS is the geometric mean over operations of each one's fastest
// repetition. Other tenants of the host this benchmark was calibrated on
// slow simulation down by up to 2x in bursts of seconds: an operation's
// fastest repetition is its least disturbed one, and the geometric mean
// weighs every operation's relative time equally, so the few long ones do
// not carry the noise of the whole run (README.md, "Host noise").
func (o *outcome) typicalMS() float64 {
	logSum, n := 0.0, 0
	for _, ms := range o.byOp() {
		if fastest := minOf(ms); fastest > 0 {
			logSum += math.Log(fastest)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// setLatency records the run's raw latency and sets latency_ms to it
// scaled to reference host speed (hostspeed.go).
func (o *outcome) setLatency(rawMS float64) {
	o.scale = o.host.factor()
	o.latencyMS = rawMS * o.scale
	o.notes["host_factor"] = fmt.Sprintf("%.4f", o.scale)
	o.notes["raw_latency_ms"] = fmt.Sprintf("%.4f", rawMS)
}

// batchResults sets a batch workload's latency, typicalMS scaled to
// reference host speed, and its throughput, the work items one operation
// completes over that latency.
func (o *outcome) batchResults(workPerOp float64) {
	o.setLatency(o.typicalMS())
	o.throughput = workPerOp / (o.latencyMS / 1e3)
}

func (o *outcome) meanOpMS() float64 {
	t := 0.0
	for _, s := range o.ops {
		t += s.ms
	}
	return ratio(t, float64(len(o.ops)))
}

// opFailed records one failed operation.
func (o *outcome) opFailed(format string, args ...any) {
	o.failed++
	o.wrong(format, args...)
}

// wrong records a failed correctness check.
func (o *outcome) wrong(format string, args ...any) {
	const keep = 20
	switch {
	case len(o.errs) < keep:
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	case len(o.errs) == keep:
		o.errs = append(o.errs, "(further failures not listed)")
	}
}

// passes runs a batch workload's passes, stopping early when one returns
// false, and returns the time they took. Their number is the budget over
// the nominal time of one pass on the calibration host, at least one: it
// depends on the budget alone, so every run and every commit does the
// same work however fast the host or the program is.
func passes(e *env, nominal time.Duration, pass func(k int) bool) time.Duration {
	n := max(1, int(math.Round(float64(e.budget())/float64(nominal))))
	start := time.Now()
	for k := 0; k < n && pass(k); k++ {
	}
	return time.Since(start)
}

// goStats measures the Go runtime's allocation and GC work over a phase.
type goStats struct{ m0 runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.m0)
	return g
}

func (g *goStats) stop(layers map[string]float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	layers["go.alloc_mb"] = float64(m1.TotalAlloc-g.m0.TotalAlloc) / 1e6
	layers["go.gc_cycles"] = float64(m1.NumGC - g.m0.NumGC)
	layers["go.gc_pause_ms"] = float64(m1.PauseTotalNs-g.m0.PauseTotalNs) / 1e6
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1e3, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not reported")
}

// report turns an outcome into the worker's result.
func (o *outcome) report(w workload, e *env) (*result, error) {
	res := &result{
		Correct:   len(o.errs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Notes:     o.notes,
		MeanOpMS:  o.meanOpMS(),
	}
	if e.trace {
		o.layers["trace.spans"] = float64(len(o.spans))
		o.layers["trace.coverage"] = coverage(o.spans, o.wall)
		res.Metrics = fill(perLayer, o.layers)
		return res, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics = map[string]value{
		"latency_ms":       {o.latencyMS, "ms"},
		"throughput_per_s": {o.throughput, "1/s"},
		"peak_rss_mb":      {rss, "MB"},
	}
	o.results["latency_tail_ms"] = quantile(o.opLatencies(), w.tailQ) * o.scale
	o.results["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	res.Outcome = map[string]value{}
	for _, d := range outcomeMetrics {
		if v, ok := o.results[d.name]; ok {
			res.Outcome[d.name] = value{v, d.unit}
		}
	}
	return res, nil
}

// runChild is the worker process: set up, signal "ready" on stdout,
// measure, and print the result as one JSON line. With setupOnly it
// returns once set up, which is how the parent times repeated set-ups.
func runChild(w workload, e *env, setupOnly bool, stdout io.Writer) error {
	e.ready = func() error {
		if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
			return err
		}
		if setupOnly {
			return errSetupOnly
		}
		return nil
	}
	o, err := w.run(e)
	if errors.Is(err, errSetupOnly) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, msg := range o.errs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, msg)
	}
	if e.trace {
		if err := writeTraceFile(e.traceDir, w.name, o.spans); err != nil {
			return err
		}
	}
	res, err := o.report(w, e)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
