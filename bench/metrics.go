package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// metricDef declares one reported number. For end-to-end metrics bound is
// the share of the parent's median by which a change may make the metric
// worse before it counts as a regression; with abs set it is an absolute
// difference instead, for ratios that are often exactly 0. An exact metric
// is a simulated result that depends only on the seed: runs of two commits
// on the same seed must agree to the last digit. BENCHMARK.json mirrors
// the endToEnd and perLayer tables; TestBenchmarkJSONMatches keeps the two
// equal.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
	abs    bool
	exact  bool
}

// endToEnd are the metrics a user of the stack sees, reported by every
// untraced run of every workload, all in host time. latency_ms is how long
// a user waits for one unit of work — a grid point, a key-extraction row,
// a request — and throughput_per_s the work items (grid points, attack
// trials, requests) completed per second.
var endToEnd = []metricDef{
	{name: "latency_ms", unit: "ms", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// outcomeMetrics are the further end-to-end results an untraced run prints
// and -compare judges, but which are not in BENCHMARK.json: the tail
// latency, which host noise moves by more than any bound BENCHMARK.json
// may set (README.md); ratios that can be exactly 0 (failures, SLO
// misses); and simulated, not host, results that depend only on the seed,
// so any change in them means the simulated behaviour moved.
var outcomeMetrics = []metricDef{
	{name: "latency_tail_ms", unit: "ms", bound: 0.25},
	{name: "fail_ratio", unit: "ratio", bound: 0, abs: true},
	{name: "slo_miss_ratio", unit: "ratio", bound: 0.01, abs: true},
	{name: "sim.sempe_vs_ideal", unit: "ratio", exact: true},
	{name: "sim.djpeg_overhead_pct", unit: "%", exact: true},
}

// perLayer are the traced run's numbers, one set for every workload; a
// layer the workload does not exercise reports 0. README.md maps each to
// the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "scenario.points", unit: "count"},
	{name: "scenario.point_ms_p50", unit: "ms"},
	{name: "scenario.point_ms_max", unit: "ms"},
	{name: "scenario.overhead_ms", unit: "ms"},
	{name: "lang.build_ms", unit: "ms"},
	{name: "compile.calls", unit: "count"},
	{name: "compile.ms_total", unit: "ms"},
	{name: "compile.us_per_call", unit: "us"},
	{name: "pipeline.core_setups", unit: "count"},
	{name: "pipeline.setup_ms_total", unit: "ms"},
	{name: "pipeline.runs", unit: "count"},
	{name: "pipeline.run_s", unit: "s"},
	{name: "pipeline.insts", unit: "count"},
	{name: "pipeline.cycles", unit: "count"},
	{name: "pipeline.minst_per_s", unit: "Minst/s", higher: true},
	{name: "pipeline.ns_per_cycle", unit: "ns"},
	{name: "pipeline.sb_builds", unit: "count"},
	{name: "pipeline.sb_replays", unit: "count", higher: true},
	{name: "pipeline.sb_legacy_ops", unit: "count"},
	{name: "pipeline.sb_wrongpath_replays", unit: "count"},
	{name: "pipeline.sb_replay_ratio", unit: "ratio", higher: true},
	{name: "pipeline.wrong_path_fetches", unit: "count"},
	{name: "pipeline.squashed_uops", unit: "count"},
	{name: "pipeline.flushes_mispredict", unit: "count"},
	{name: "pipeline.flushes_secure_redirect", unit: "count"},
	{name: "pipeline.flushes_overflow", unit: "count"},
	{name: "pipeline.useful_fetch_ratio", unit: "ratio", higher: true},
	{name: "pipeline.ipc.base", unit: "inst/cycle", higher: true},
	{name: "pipeline.ipc.sempe", unit: "inst/cycle", higher: true},
	{name: "pipeline.ipc.cte", unit: "inst/cycle", higher: true},
	{name: "pipeline.drain_stall_cycles", unit: "cycles"},
	{name: "pipeline.spm_stall_cycles", unit: "cycles"},
	{name: "pipeline.fetch_stall_cycles", unit: "cycles"},
	{name: "pipeline.nest_overflows", unit: "count"},
	{name: "cache.il1_miss_ratio.base", unit: "ratio"},
	{name: "cache.il1_miss_ratio.sempe", unit: "ratio"},
	{name: "cache.dl1_miss_ratio.base", unit: "ratio"},
	{name: "cache.dl1_miss_ratio.sempe", unit: "ratio"},
	{name: "cache.l2_miss_ratio.base", unit: "ratio"},
	{name: "cache.l2_miss_ratio.sempe", unit: "ratio"},
	{name: "bpred.mispredict_ratio.base", unit: "ratio"},
	{name: "bpred.mispredict_ratio.sempe", unit: "ratio"},
	{name: "attack.extract_calls", unit: "count"},
	{name: "attack.extract_ms_p50", unit: "ms"},
	{name: "attack.extract_ms_max", unit: "ms"},
	{name: "attack.trials", unit: "count"},
	{name: "attack.trials_per_s", unit: "1/s", higher: true},
	{name: "attack.template_hits", unit: "count", higher: true},
	{name: "attack.template_misses", unit: "count"},
	{name: "attack.template_fallbacks", unit: "count"},
	{name: "attack.template_hit_ratio", unit: "ratio", higher: true},
	{name: "attack.core_builds", unit: "count"},
	{name: "attack.core_resets", unit: "count", higher: true},
	{name: "store.gets", unit: "count"},
	{name: "store.hits", unit: "count", higher: true},
	{name: "store.misses", unit: "count"},
	{name: "store.puts", unit: "count"},
	{name: "store.corrupt", unit: "count"},
	{name: "store.get_ms_p50", unit: "ms"},
	{name: "store.get_ms_p99", unit: "ms"},
	{name: "store.put_ms_p50", unit: "ms"},
	{name: "store.put_ms_p99", unit: "ms"},
	{name: "serve.requests", unit: "count"},
	{name: "serve.lru_hits", unit: "count", higher: true},
	{name: "serve.store_hits", unit: "count"},
	{name: "serve.computes", unit: "count"},
	{name: "serve.lru_hit_ms_p50", unit: "ms"},
	{name: "serve.store_hit_ms_p50", unit: "ms"},
	{name: "serve.store_hit_ms_p99", unit: "ms"},
	{name: "serve.compute_ms_p50", unit: "ms"},
	{name: "serve.compute_ms_p95", unit: "ms"},
	{name: "serve.queue_wait_ms_p50", unit: "ms"},
	{name: "serve.queue_wait_ms_p95", unit: "ms"},
	{name: "serve.sweep_ms_p50", unit: "ms"},
	{name: "serve.handler_overhead_ms_p50", unit: "ms"},
	{name: "gen.lag_ms_p99", unit: "ms"},
	{name: "gen.lag_ms_max", unit: "ms"},
	{name: "go.alloc_mb", unit: "MB"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.coverage", unit: "ratio", higher: true},
}

// value is one measured number with its unit, the wire form of a metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's report. Its first four fields are the
// contract line printed last on standard output; Outcome and Notes travel
// only between the worker process and its parent and into -out records.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]value  `json:"metrics"`
	Outcome   map[string]value  `json:"outcome,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	// MeanOpMS is the mean operation latency; the parent compares a traced
	// run's against the untraced run's to report the tracing overhead.
	MeanOpMS float64 `json:"mean_op_ms,omitempty"`
}

// contractLine is the last line of standard output: exactly the four keys.
func (r *result) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// fill sets every metric of defs from vals, 0 where a layer was idle.
func fill(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

// printLines writes one "workload metric value unit" line per metric of
// defs present in vals, in declaration order.
func printLines(w io.Writer, workload string, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
}
