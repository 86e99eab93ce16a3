package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/victim"
)

// The keyextract workload runs the keyextract scenario with 16-bit keys
// and its default attackers, victims, architectures and trial count, once
// per seed derived from the benchmark seed: five passes in the 15 s budget.
// One operation is one grid row (an attack.ExtractKey call); one work item
// is one attack trial.

// keyPassTime is one pass's nominal time on the calibration host.
const keyPassTime = 3 * time.Second

type keyGrid struct {
	spec experiments.KeyExtractSpec
}

func newKeyGrid(e *env) keyGrid {
	g := keyGrid{spec: experiments.DefaultKeyExtractSpec()}
	g.spec.Widths = []int{16}
	if e.tiny {
		g.spec.Victims = []string{"keyloop", "ctcompare"}
		g.spec.Widths = []int{2}
		g.spec.Trials = 12
	}
	return g
}

func (g keyGrid) rows() int {
	s := g.spec
	return len(s.Attackers) * len(s.Victims) * len(s.Widths) * len(s.Gaps) * len(s.Archs)
}

// scenarioSpec encodes the grid, with the pass's seed, as engine
// parameters.
func (g keyGrid) scenarioSpec(seed int64) scenario.Spec {
	s := g.spec
	var attackers, widths, gaps, archs []string
	for _, k := range s.Attackers {
		attackers = append(attackers, k.String())
	}
	for _, w := range s.Widths {
		widths = append(widths, strconv.Itoa(w))
	}
	for _, gap := range s.Gaps {
		gaps = append(gaps, strconv.Itoa(gap))
	}
	for _, a := range s.Archs {
		archs = append(archs, attack.ArchName(a))
	}
	return scenario.Spec{Workers: 1, Params: map[string]string{
		"attackers": strings.Join(attackers, ","), "victims": strings.Join(s.Victims, ","),
		"widths": strings.Join(widths, ","), "gaps": strings.Join(gaps, ","),
		"archs": strings.Join(archs, ","), "trials": strconv.Itoa(s.Trials),
		"seed": strconv.FormatInt(seed, 10), "noise": strconv.Itoa(s.Noise)}}
}

// params lists each row's ExtractKey parameters in the engine's row-major
// order (attacker, victim, width, gap, arch; last fastest).
func (g keyGrid) params(seed int64) []attack.KeyParams {
	s := g.spec
	var out []attack.KeyParams
	for _, k := range s.Attackers {
		for _, v := range s.Victims {
			for _, w := range s.Widths {
				for _, gap := range s.Gaps {
					for _, secure := range s.Archs {
						out = append(out, attack.KeyParams{Kind: k, Secure: secure, Victim: v, Width: w,
							Trials: s.Trials, Seed: seed, Noise: s.Noise, Gap: gap, Key: -1})
					}
				}
			}
		}
	}
	return out
}

// keyPass runs one pass through the engine, timing rows from its progress
// callbacks and sampling host speed after each.
func keyPass(g keyGrid, seed int64, journal *obs.Journal, host *hostSpeed) ([]attack.KeyRecovery, []float64, error) {
	sc, ok := scenario.Lookup("keyextract")
	if !ok {
		return nil, nil, fmt.Errorf("scenario keyextract not registered")
	}
	var latMS []float64
	prev, done := time.Now(), 0
	res, err := scenario.Run(sc, g.scenarioSpec(seed), scenario.RunOptions{
		Journal: journal,
		Progress: func(d, _ int) {
			if d > done {
				latMS = append(latMS, msSince(prev, time.Now()))
				host.sample()
				prev, done = time.Now(), d
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]attack.KeyRecovery, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.(attack.KeyRecovery)
	}
	return rows, latMS, nil
}

// checkRow applies the scenario's own gate: on SeMPE every victim stays
// secure; on the baseline a leaky victim yields its whole key and the
// constant-time control stays secure.
func checkRow(row attack.KeyRecovery) error {
	v, err := victim.Lookup(row.Victim)
	if err != nil {
		return err
	}
	if !row.MeetsExpectation(v.Leaky()) {
		return fmt.Errorf("unexpected verdict: %s", row)
	}
	return nil
}

func runKeyExtract(e *env) (*outcome, error) {
	g := newKeyGrid(e)
	if err := e.ready(); err != nil {
		return nil, err
	}
	if e.trace {
		return traceKeyExtract(e, g)
	}
	o := newOutcome()
	trials0, npass := attack.PerfSnapshot().Trials, 0
	pass := func(k int) bool {
		seed := keyextractSeed(e.seed, k)
		rows, latMS, err := keyPass(g, seed, nil, &o.host)
		o.attempted += g.rows()
		if err != nil {
			o.failed += g.rows()
			o.wrong("pass %d (seed %d): %v", k, seed, err)
			return false
		}
		npass++
		for i, ms := range latMS {
			o.addOp(strconv.Itoa(i), ms)
		}
		for _, row := range rows {
			if err := checkRow(row); err != nil {
				o.opFailed("seed %d: %v", seed, err)
			}
		}
		return true
	}
	o.wall = passes(e, keyPassTime, pass)
	if npass > 0 {
		o.batchResults(float64(attack.PerfSnapshot().Trials-trials0) / float64(npass*g.rows()))
	}
	return o, nil
}

// traceKeyExtract calls attack.ExtractKey once per row, one span each,
// then runs the same passes untraced through the engine and checks that
// both give identical rows.
func traceKeyExtract(e *env, g keyGrid) (*outcome, error) {
	o := newOutcome()
	rec := newRecorder()
	gs := startGoStats()
	c0 := snapCounters()
	var seeds []int64
	var traced [][]attack.KeyRecovery
	o.wall = passes(e, keyPassTime, func(k int) bool {
		seed := keyextractSeed(e.seed, k)
		seeds = append(seeds, seed)
		var rows []attack.KeyRecovery
		for _, p := range g.params(seed) {
			h := rec.begin("attack.ExtractKey", "attack", o.attempted, 1, 0)
			row, err := attack.ExtractKey(p)
			rec.end(h)
			o.attempted++
			if err != nil {
				o.opFailed("seed %d %s/%s: %v", seed, p.Kind, p.Victim, err)
			} else if err := checkRow(row); err != nil {
				o.opFailed("seed %d: %v", seed, err)
			}
			rows = append(rows, row)
		}
		traced = append(traced, rows)
		return true
	})
	gs.stop(o.layers)
	c0.deltaInto(o.layers)
	o.spans = rec.snapshot()
	calls := millis(o.spans, "attack.ExtractKey")
	for i, ms := range calls {
		o.addOp(strconv.Itoa(i%g.rows()), ms)
	}
	o.layers["attack.extract_calls"] = float64(len(calls))
	o.layers["attack.extract_ms_p50"] = median(calls)
	o.layers["attack.extract_ms_max"] = maxOf(calls)

	journal := obs.NewJournal()
	for k, seed := range seeds {
		ref, _, err := keyPass(g, seed, journal, nil)
		if err != nil {
			o.wrong("untraced pass (seed %d): %v", seed, err)
			continue
		}
		for i := range ref {
			a, _ := json.Marshal(traced[k][i])
			b, _ := json.Marshal(ref[i])
			if string(a) != string(b) {
				o.opFailed("seed %d row %d: ExtractKey result differs from the engine's row", seed, i)
			}
		}
	}
	scenarioLayers(journal, o.layers)
	return o, nil
}

// engineCounters are the process-wide counters the attack lab and the
// pipeline publish; workloads that do not drive cores themselves read the
// pipeline's work from their deltas.
type engineCounters struct {
	perf attack.Perf
	spec pipeline.SpecCounters
}

func snapCounters() engineCounters {
	return engineCounters{attack.PerfSnapshot(), pipeline.GlobalSpecCounters()}
}

func (c0 engineCounters) deltaInto(out map[string]float64) {
	c1 := snapCounters()
	p0, p1, s0, s1 := c0.perf, c1.perf, c0.spec, c1.spec
	d := func(a, b uint64) float64 { return float64(b - a) }
	out["attack.trials"] = d(p0.Trials, p1.Trials)
	out["attack.trials_per_s"] = ratio(out["attack.trials"], p1.TrialSeconds-p0.TrialSeconds)
	out["attack.template_hits"] = d(p0.TemplateHits, p1.TemplateHits)
	out["attack.template_misses"] = d(p0.TemplateMisses, p1.TemplateMisses)
	out["attack.template_fallbacks"] = d(p0.TemplateFallbacks, p1.TemplateFallbacks)
	out["attack.template_hit_ratio"] = ratio(out["attack.template_hits"], out["attack.template_hits"]+out["attack.template_misses"])
	out["attack.core_builds"] = d(p0.CoreBuilds, p1.CoreBuilds)
	out["attack.core_resets"] = d(p0.CoreResets, p1.CoreResets)
	out["pipeline.core_setups"] = out["attack.core_builds"] + out["attack.core_resets"]
	out["pipeline.sb_builds"] = d(p0.SBBuilds, p1.SBBuilds)
	out["pipeline.sb_replays"] = d(p0.SBReplays, p1.SBReplays)
	out["pipeline.sb_legacy_ops"] = d(p0.SBLegacyOps, p1.SBLegacyOps)
	out["pipeline.sb_wrongpath_replays"] = d(p0.SBWrongPathReplays, p1.SBWrongPathReplays)
	out["pipeline.sb_replay_ratio"] = ratio(out["pipeline.sb_replays"], out["pipeline.sb_replays"]+out["pipeline.sb_legacy_ops"])
	out["pipeline.wrong_path_fetches"] = d(s0.WrongPathFetches, s1.WrongPathFetches)
	out["pipeline.squashed_uops"] = d(s0.SquashedUops, s1.SquashedUops)
	out["pipeline.flushes_mispredict"] = d(s0.FlushMispredicts, s1.FlushMispredicts)
	out["pipeline.flushes_secure_redirect"] = d(s0.FlushSecRedirects, s1.FlushSecRedirects)
	out["pipeline.flushes_overflow"] = d(s0.FlushOverflows, s1.FlushOverflows)
}
