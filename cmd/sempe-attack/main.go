// Command sempe-attack runs the attack lab one-off: a concrete
// microarchitectural attacker (Spectre-PHT branch-predictor probe or DL1
// prime+probe) against a secret-parameterized victim on the simulated
// core, with the full statistical assessment — TVLA fixed-vs-random,
// a mutual-information estimate, and the secret-recovery rate with its
// 95% confidence interval:
//
//	sempe-attack                             # both attackers, both architectures
//	sempe-attack -attacker bp -arch baseline -trials 200
//	sempe-attack -format json
//	sempe-attack -check                      # exit 1 unless baseline leaks AND SeMPE holds
//
// With -victim the lab switches to multi-bit key extraction: the chosen
// victim (keyloop, modexp, ctcompare, bit — see internal/victim) is
// attacked bit by bit over a -bits wide key, optionally with -gap units of
// uncontrolled activity between train and probe (a weaker attacker):
//
//	sempe-attack -victim keyloop -bits 8
//	sempe-attack -victim modexp -bits 8 -gap 64 -arch baseline
//	sempe-attack -victim ctcompare -bits 8 -check   # negative control must stay SECURE
//
// In extraction mode -check requires every leaky victim to yield its full
// key on the baseline and every SeMPE (and constant-time) result to stay
// secure. The grid sweep equivalents are the `spectre`/`tvla` and
// `keyextract`/`noise` scenarios on sempe-bench, with or without a
// result store; this binary is for quick interactive runs and the CI
// attack-smoke job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/stattest"
	"repro/internal/victim"
)

func main() {
	defaults := attack.DefaultParams(attack.BPProbe, false)
	var (
		attackerF = flag.String("attacker", "all", "bp|cache|all")
		archF     = flag.String("arch", "both", "baseline|sempe|both")
		trials    = flag.Int("trials", defaults.Trials, "trials per batch; in extraction mode, trials per bit (default there is 40 unless set)")
		seed      = flag.Int64("seed", defaults.Seed, "deterministic trial seed")
		noise     = flag.Int("noise", defaults.Noise, "max in-window public noise ops per trial")
		victimF   = flag.String("victim", "", "key-extraction mode: victim to attack (see -list-victims)")
		bits      = flag.Int("bits", 8, "extraction mode: key width in bits")
		gap       = flag.Int("gap", 0, "extraction mode: units of train-to-probe gap activity (weaker attacker)")
		keyF      = flag.Int64("key", -1, "extraction mode: pin the true key (-1 = derive from seed)")
		listVics  = flag.Bool("list-victims", false, "list the registered victims and exit")
		workers   = flag.Int("workers", 1, "trial worker pool size (results are bit-identical at any value)")
		sbstats   = flag.Bool("sbstats", false, "report throughput-engine counters (template cache, core pool, decode-cache decodes/replays, calibration forks)")
		metricsF  = flag.String("metrics", "", "after the run, write the Prometheus text exposition of the process metric families to this file (- for stderr)")
		format    = flag.String("format", "text", "output encoding: text|json")
		check     = flag.Bool("check", false, "exit 1 unless every baseline attack leaks (leaky victims: full key) and every SeMPE attack is secure")
	)
	flag.Parse()

	if *listVics {
		for _, v := range victim.All() {
			leaky := "leaky"
			if !v.Leaky() {
				leaky = "control"
			}
			fmt.Printf("%-10s %-8s %s\n", v.Name(), leaky, v.Describe())
		}
		return
	}

	kinds := attack.AllKinds()
	if *attackerF != "all" {
		k, err := attack.ParseKind(*attackerF)
		if err != nil {
			fatal("%v", err)
		}
		kinds = []attack.Kind{k}
	}
	archs := []bool{false, true}
	if *archF != "both" {
		secure, err := attack.ParseArch(*archF)
		if err != nil {
			fatal("%v", err)
		}
		archs = []bool{secure}
	}
	switch *format {
	case "text", "json":
	default:
		fatal("unknown format %q (want text or json)", *format)
	}

	if *victimF != "" {
		v, err := victim.Lookup(*victimF)
		if err != nil {
			fatal("%v", err)
		}
		// Unless -trials was given explicitly, extraction mode uses the
		// per-bit default (100 per bit is overkill for a deterministic
		// simulator; match DefaultKeyParams).
		extractTrials := attack.DefaultKeyParams(attack.BPProbe, false).Trials
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trials" {
				extractTrials = *trials
			}
		})
		var results []attack.KeyRecovery
		ok := true
		for _, kind := range kinds {
			for _, secure := range archs {
				kr, err := attack.ExtractKey(attack.KeyParams{
					Kind:    kind,
					Secure:  secure,
					Victim:  v.Name(),
					Width:   *bits,
					Trials:  extractTrials,
					Seed:    *seed,
					Noise:   *noise,
					Gap:     *gap,
					Key:     *keyF,
					Workers: *workers,
				})
				if err != nil {
					fatal("%v", err)
				}
				results = append(results, kr)
				if !kr.MeetsExpectation(v.Leaky()) {
					ok = false
				}
			}
		}
		switch *format {
		case "json":
			emitJSON(results, *sbstats)
		default:
			for _, kr := range results {
				fmt.Println(kr)
				for _, b := range kr.Bits {
					tte := "-"
					if b.TrialsToExtract >= 0 {
						tte = fmt.Sprintf("%d", b.TrialsToExtract)
					}
					fmt.Printf("    bit %2d: true %d guess %d  acc %5.1f%% (CI %.1f%%..%.1f%%, %d discarded)  recovery %5.1f%%  |t| %.1f  tte %s\n",
						b.Bit, b.TrueBit, b.Guess, 100*b.Accuracy, 100*b.AccLo, 100*b.AccHi,
						b.Discarded, 100*b.Recovery, b.MaxAbsT, tte)
				}
			}
			printPerf(*sbstats)
		}
		dumpMetrics(*metricsF)
		gate(*check, ok, "expected every leaky victim to yield its full key on the baseline, and every SeMPE or constant-time result to stay secure")
		return
	}

	var results []attack.Assessment
	ok := true
	for _, kind := range kinds {
		for _, secure := range archs {
			a, err := attack.RunAssessment(attack.Params{
				Kind:    kind,
				Secure:  secure,
				Trials:  *trials,
				Seed:    *seed,
				Noise:   *noise,
				Workers: *workers,
			})
			if err != nil {
				fatal("%v", err)
			}
			results = append(results, a)
			if secure == a.Leaks() {
				// The baseline must leak; SeMPE must not.
				ok = false
			}
		}
	}

	switch *format {
	case "json":
		emitJSON(results, *sbstats)
	default:
		for _, a := range results {
			fmt.Println(a)
			for _, c := range a.Columns {
				fmt.Printf("    %-16s t = %.1f\n", c.Column, c.T)
			}
		}
		fmt.Printf("TVLA threshold |t| >= %.1f; recovery 'LEAK' means the 95%% CI clears 50%%\n", stattest.TVLAThreshold)
		printPerf(*sbstats)
	}

	dumpMetrics(*metricsF)
	gate(*check, ok, "expected every baseline attack to leak and every SeMPE attack to be secure")
}

// dumpMetrics writes the process-wide metric families (the same counters
// behind -sbstats, as Prometheus text exposition) to path, "-" meaning
// stderr so it composes with -format json on stdout.
func dumpMetrics(path string) {
	if path == "" {
		return
	}
	if path == "-" {
		obs.Default().WriteText(os.Stderr)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("metrics: %v", err)
	}
	obs.Default().WriteText(f)
	if err := f.Close(); err != nil {
		fatal("metrics: %v", err)
	}
}

// emitJSON encodes the results, wrapping them with the throughput-engine
// perf counters when -sbstats is set (plain results otherwise, so existing
// consumers of the JSON output see an unchanged shape by default).
func emitJSON(results any, sbstats bool) {
	var payload any = results
	if sbstats {
		payload = struct {
			Results any         `json:"results"`
			Perf    attack.Perf `json:"perf"`
		}{results, attack.PerfSnapshot()}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		fatal("json: %v", err)
	}
}

// printPerf renders the -sbstats counter block for text output.
func printPerf(sbstats bool) {
	if !sbstats {
		return
	}
	p := attack.PerfSnapshot()
	fmt.Printf("perf: template cache %d hits / %d misses / %d evictions\n",
		p.TemplateHits, p.TemplateMisses, p.TemplateEvictions)
	fmt.Printf("perf: core pool %d built / %d reset\n", p.CoreBuilds, p.CoreResets)
	fmt.Printf("perf: decoded %d instructions, %d replayed ops\n", p.SBBuilds, p.SBReplays)
	fmt.Printf("perf: wrong path %d decodes, %d replayed ops squashed\n",
		p.SBWrongPathBuilds, p.SBWrongPathReplays)
	fmt.Printf("perf: calibration pairs %d forked / %d unforked\n", p.Forks, p.ForkMisses)
	if p.TrialSeconds > 0 {
		fmt.Printf("perf: %d trials in %.3fs (%.0f trials/s)\n",
			p.Trials, p.TrialSeconds, float64(p.Trials)/p.TrialSeconds)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sempe-attack: "+format+"\n", args...)
	os.Exit(1)
}

// gate applies -check with the mode's own expectation in the failure
// message, so a failing CI smoke points at what was actually violated.
func gate(check, ok bool, expectation string) {
	if check && !ok {
		fmt.Fprintf(os.Stderr, "sempe-attack: CHECK FAILED: %s\n", expectation)
		os.Exit(1)
	}
	if check {
		fmt.Fprintln(os.Stderr, "sempe-attack: check passed")
	}
}
