package attack

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/victim"
)

// runTrial builds, compiles, and runs one attacker program — the victim's
// fragment for (key, width, bit) wrapped in the attacker's measurement
// scaffold, with gap activity seeded by gapSeed — and extracts the
// observation vector from its marker timestamps. It is the naive reference
// the runner and TraceTrial must match.
func runTrial(p Params, d draw, gapSeed int64, key uint64) ([]float64, error) {
	v, err := p.victimImpl()
	if err != nil {
		return nil, err
	}
	frag := v.Fragment(key, p.width(), p.Bit)
	var prog *lang.Program
	wantStamps := 0
	switch p.Kind {
	case BPProbe:
		prog = bpProgram(frag, d, gapSeed, p.Gap)
		wantStamps = 4
	case PrimeProbe:
		prog = cacheProgram(frag, d, gapSeed, p.Gap)
		wantStamps = 3
	default:
		return nil, fmt.Errorf("unknown attacker kind %d", int(p.Kind))
	}
	mode, cfg := compile.Plain, pipeline.DefaultConfig()
	if p.Secure {
		mode, cfg = compile.SeMPE, pipeline.SecureConfig()
	}
	out, err := compile.Compile(prog, mode)
	if err != nil {
		return nil, err
	}
	mrk, ok := out.ArrayAddrs[markerArray]
	if !ok {
		return nil, fmt.Errorf("program has no %q marker array", markerArray)
	}
	var stamps []uint64
	core := pipeline.New(cfg, out.Prog)
	core.MemWatch = func(addr uint64, write bool, cycle uint64) {
		if write && addr == mrk {
			stamps = append(stamps, cycle)
		}
	}
	if err := core.Run(); err != nil {
		return nil, err
	}
	if len(stamps) != wantStamps {
		return nil, fmt.Errorf("got %d marker stamps, want %d", len(stamps), wantStamps)
	}
	total := float64(core.Cycles())
	switch p.Kind {
	case BPProbe:
		// stamps = [victim start, victim end, probe start, probe end].
		return []float64{float64(stamps[3] - stamps[2]), total}, nil
	default: // PrimeProbe
		// stamps = [probe start, after set-A reload, after set-B reload].
		tA := float64(stamps[1] - stamps[0])
		tB := float64(stamps[2] - stamps[1])
		return []float64{tA, tB, tA - tB, total}, nil
	}
}

// TestRunnerMatchesLegacy: the runner's pooled-core, template-patched run
// must produce exactly the observation vector the legacy path (fresh build,
// fresh compile, fresh core) produces,
// for every attacker kind, architecture, victim contract, and gap setting —
// the runner is a pure throughput optimization, never a semantic change.
func TestRunnerMatchesLegacy(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			for _, vic := range []string{"", "keyloop"} {
				for _, gap := range []int{0, 6} {
					name := fmt.Sprintf("%s/%s/%s/gap%d", kind, ArchName(secure), orBit(vic), gap)
					t.Run(name, func(t *testing.T) {
						p := DefaultParams(kind, secure)
						p.Gap = gap
						if vic != "" {
							p.Victim, p.Width, p.Bit, p.KeyPrefix = vic, 3, 1, 1
						}
						r, err := newRunner(p)
						if err != nil {
							t.Fatal(err)
						}
						var buf []float64
						for trial := 0; trial < 3; trial++ {
							d := newDraw(trialRNG(p.effSeed(), trial), p)
							if rd := r.trialDraw(trial); rd != d {
								t.Fatalf("trial %d: runner draw %+v != legacy draw %+v", trial, rd, d)
							}
							for _, key := range []uint64{p.KeyPrefix, p.KeyPrefix | 1<<uint(p.Bit)} {
								want, err := runTrial(p, d, d.gapCal, key)
								if err != nil {
									t.Fatal(err)
								}
								got, err := r.run(d, d.gapCal, key, &buf)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("trial %d key %#x: runner %v != legacy %v", trial, key, got, want)
								}
							}
							if gap > 0 {
								want, err := runTrial(p, d, d.gapMeas, p.KeyPrefix|1<<uint(p.Bit))
								if err != nil {
									t.Fatal(err)
								}
								got, err := r.measure(d, p.KeyPrefix|1<<uint(p.Bit))
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("trial %d measurement: runner %v != legacy %v", trial, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}

func orBit(v string) string {
	if v == "" {
		return "bit"
	}
	return v
}

// TestTemplatePatchMatchesFreshCompile pins the Victim.KeyInits contract:
// for every registered victim, a cached template patched for a different key
// must be byte-identical — code, data segments, entry, symbols — to a fresh
// compilation for that key. A victim whose program STRUCTURE depends on the
// key (not just its prologue immediates) would fail here, which is the test
// the KeyInits doc tells implementers about.
func TestTemplatePatchMatchesFreshCompile(t *testing.T) {
	h0, _, _ := tmplMemo.Counters()
	for _, v := range victim.All() {
		for _, kind := range AllKinds() {
			for _, secure := range []bool{false, true} {
				for _, gap := range []int{0, 6} {
					name := fmt.Sprintf("%s/%s/%s/gap%d", v.Name(), kind, ArchName(secure), gap)
					t.Run(name, func(t *testing.T) {
						p := DefaultParams(kind, secure)
						p.Victim, p.Width, p.Bit, p.KeyPrefix, p.Gap = v.Name(), 4, 2, 2, gap
						prod, err := newRunner(p) // production path: template + patch
						if err != nil {
							t.Fatal(err)
						}
						ref, err := newRunner(p) // reference: always full compile
						if err != nil {
							t.Fatal(err)
						}
						for trial := 0; trial < 2; trial++ {
							d := prod.trialDraw(trial)
							for _, key := range []uint64{p.KeyPrefix, p.KeyPrefix | 4, 7, 0} {
								if _, _, err := prod.prepare(d, d.gapCal, key); err != nil {
									t.Fatal(err)
								}
								if _, err := ref.compileFull(d, d.gapCal, key); err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(prod.prog, ref.prog) {
									t.Errorf("trial %d key %#x: patched program != fresh compilation", trial, key)
								}
							}
						}
					})
				}
			}
		}
	}
	if h1, _, _ := tmplMemo.Counters(); h1 == h0 {
		t.Error("template cache recorded no hits; the patch fast path never engaged")
	}

	// The probed-set draw is patch data, not shape: prime+probe trials that
	// differ only in (la, lb) must share one cached template. Drive prepare
	// with hand-built draws that pin every shape field and vary only the
	// probed pair, and require at most one miss (the initial build — zero
	// when an earlier subtest already cached this shape), a hit for every
	// other draw, and no evictions. Before the probed-set offsets moved
	// into patch slots, each pair was its own key and every draw missed.
	t.Run("probedset-memo", func(t *testing.T) {
		p := DefaultParams(PrimeProbe, false)
		p.Victim, p.Width, p.Bit, p.KeyPrefix = "keyloop", 4, 2, 2
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		h0, m0, e0 := tmplMemo.Counters()
		pairs := [][2]int{{16, 17}, {40, 200}, {77, 33}, {120, 121}, {18, 239}, {90, 16}}
		for i, pair := range pairs {
			d := draw{seed0: int64(1000 + i), noisePre: 5, la: pair[0], lb: pair[1]}
			if _, _, err := r.prepare(d, 0, p.KeyPrefix); err != nil {
				t.Fatal(err)
			}
		}
		h1, m1, e1 := tmplMemo.Counters()
		hits, misses := h1-h0, m1-m0
		if misses > 1 {
			t.Errorf("%d probed-set pairs caused %d template misses, want at most 1", len(pairs), misses)
		}
		if hits+misses != uint64(len(pairs)) || hits < uint64(len(pairs)-1) {
			t.Errorf("template hits %d + misses %d across %d draws; want every draw after the build to hit", hits, misses, len(pairs))
		}
		if e1 != e0 {
			t.Errorf("template evictions changed (%d -> %d)", e0, e1)
		}
	})
}

// TestParallelMatchesSerial: batch and key-extraction output must be
// byte-identical (as JSON, the storage encoding) at any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(fmt.Sprintf("run/%s", kind), func(t *testing.T) {
			p := DefaultParams(kind, false)
			p.Trials = 10
			want := mustJSON(t, mustRunBatch(t, p))
			for _, w := range []int{2, 4} {
				p.Workers = w
				if got := mustJSON(t, mustRunBatch(t, p)); got != want {
					t.Errorf("workers=%d batch differs from serial", w)
				}
			}
		})
	}
	// Key extraction with gap activity exercises the measurement path and the
	// prefix walk on top of the calibration pairs.
	kp := DefaultKeyParams(BPProbe, false)
	kp.Width, kp.Trials, kp.Gap = 3, 6, 4
	t.Run("extract/bp", func(t *testing.T) {
		want := mustJSON(t, mustExtract(t, kp))
		for _, w := range []int{2, 4} {
			kp.Workers = w
			if got := mustJSON(t, mustExtract(t, kp)); got != want {
				t.Errorf("workers=%d key recovery differs from serial", w)
			}
		}
	})
}

func mustRunBatch(t *testing.T, p Params) *Batch {
	t.Helper()
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustExtract(t *testing.T, p KeyParams) KeyRecovery {
	t.Helper()
	kr, err := ExtractKey(p)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTrialLoopZeroAlloc gates the steady-state trial loop at zero
// allocations per calibration pair: once the template is cached and the
// pooled core, patch buffer, and observation buffers are warm, a trial costs
// simulation only — no garbage. This is the allocs/op gate BENCH_sim.json's
// attack-trial entries track.
func TestTrialLoopZeroAlloc(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s", kind, ArchName(secure)), func(t *testing.T) {
				p := DefaultParams(kind, secure)
				r, err := newRunner(p)
				if err != nil {
					t.Fatal(err)
				}
				const trial = 3
				// Two warm-up pairs: the first compiles and caches the
				// template and builds the core; the second settles every
				// growable buffer at its steady-state capacity.
				for i := 0; i < 2; i++ {
					if _, _, _, err := r.calibPair(trial); err != nil {
						t.Fatal(err)
					}
				}
				var runErr error
				allocs := testing.AllocsPerRun(10, func() {
					if _, _, _, err := r.calibPair(trial); err != nil {
						runErr = err
					}
				})
				if runErr != nil {
					t.Fatal(runErr)
				}
				if allocs != 0 {
					t.Errorf("steady-state calibration pair allocates: %.1f allocs/op, want 0", allocs)
				}
			})
		}
	}
}
