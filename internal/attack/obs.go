// Attack throughput counters exported as metric families. Registration is
// scrape-time only: each family is a CounterFunc reading the existing
// process-wide atomics (template memo, core pool, superblock engine, trial
// throughput), so importing this package adds zero cost to the simulation
// and trial hot paths. The same numbers back PerfSnapshot (-sbstats), a
// /metrics scrape from a serving process, and the -metrics exposition dump
// of sempe-attack — one snapshot API, three read paths.
package attack

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

func init() {
	reg := obs.Default()
	u64 := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc("sempe_attack_template_hits_total",
		"Compiled-template memo hits across all attack runners.",
		func() float64 { h, _, _ := tmplMemo.Counters(); return float64(h) })
	reg.CounterFunc("sempe_attack_template_misses_total",
		"Compiled-template memo misses (templates compiled).",
		func() float64 { _, m, _ := tmplMemo.Counters(); return float64(m) })
	reg.CounterFunc("sempe_attack_template_evictions_total",
		"Compiled templates evicted from the memo.",
		func() float64 { _, _, e := tmplMemo.Counters(); return float64(e) })
	reg.CounterFunc("sempe_attack_core_builds_total",
		"Simulator cores built from scratch (core-pool misses).",
		u64(&perfCounters.coreBuilds))
	reg.CounterFunc("sempe_attack_core_resets_total",
		"Simulator cores reused via reset (core-pool hits).",
		u64(&perfCounters.coreResets))
	reg.CounterFunc("sempe_superblock_builds_total",
		"Superblocks decoded and cached by the execution engine.",
		u64(&perfCounters.sbBuilds))
	reg.CounterFunc("sempe_superblock_replayed_ops_total",
		"Operations executed via memoized superblock fast paths.",
		u64(&perfCounters.sbReplays))
	reg.CounterFunc("sempe_sb_wrongpath_builds_total",
		"Superblock builds attributed to squashed (wrong-path) fetch regions.",
		u64(&perfCounters.sbWPBuilds))
	reg.CounterFunc("sempe_sb_wrongpath_replays_total",
		"Replayed micro-ops later squashed by a flush: wrong-path work the "+
			"replay engine ran on mispredicted paths.",
		u64(&perfCounters.sbWPReplay))
	reg.CounterFunc("sempe_attack_trials_total",
		"Attack trials completed across all batches.",
		u64(&perfCounters.trials))
	reg.CounterFunc("sempe_attack_trial_seconds_total",
		"Cumulative wall-clock seconds spent inside trial batches; "+
			"sempe_attack_trials_total divided by this is trials/s.",
		func() float64 { return float64(perfCounters.trialNS.Load()) / 1e9 })

	// Speculative-window families: process-wide wrong-path accounting
	// published by every completed Run (pipeline.GlobalSpecCounters). Like the
	// families above, these are scrape-time reads of existing atomics; the
	// underlying Stats counters are always on, armed tracer or not.
	spec := func(pick func(pipeline.SpecCounters) uint64) func() float64 {
		return func() float64 { return float64(pick(pipeline.GlobalSpecCounters())) }
	}
	reg.CounterFunc("sempe_spec_wrong_path_fetches_total",
		"Fetched micro-ops discarded without committing, across all runs.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.WrongPathFetches }))
	reg.CounterFunc("sempe_spec_squashed_uops_total",
		"Renamed in-flight micro-ops squashed by pipeline flushes.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.SquashedUops }))
	reg.CounterFunc("sempe_spec_flushes_mispredict_total",
		"Pipeline flushes caused by branch or indirect-target mispredictions.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.FlushMispredicts }))
	reg.CounterFunc("sempe_spec_flushes_secure_redirect_total",
		"Front-end redirects from SeMPE eosJMP commit-time jump-backs.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.FlushSecRedirects }))
	reg.CounterFunc("sempe_spec_flushes_overflow_total",
		"Pipeline flushes from nesting-overflow-downgraded secure branches.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.FlushOverflows }))
	reg.CounterFunc("sempe_spec_events_total",
		"SpecEvents delivered to armed speculative-window watches.",
		spec(func(c pipeline.SpecCounters) uint64 { return c.SpecEvents }))
}
