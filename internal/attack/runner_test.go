package attack

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/isa"
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
// — or built at one attacked bit and patched to another — must be
// byte-identical (code, data segments, entry, symbols) to a fresh
// compilation for that key and bit. A victim whose program STRUCTURE
// depends on the key or the bit (not just its patch-slot immediates) would
// fail here, which is the test the KeyInits doc tells implementers about.
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
						prod, err := newRunner(p)
						if err != nil {
							t.Fatal(err)
						}
						for trial := 0; trial < 2; trial++ {
							d := prod.trialDraw(trial)
							for _, key := range []uint64{p.KeyPrefix, p.KeyPrefix | 4, 7, 0} {
								out, _, err := prod.prepare(0, d, d.gapCal, key)
								if err != nil {
									t.Fatal(err)
								}
								// Footprint: the registered victims declare no
								// initialized arrays, so a template's image is
								// code alone. Its zero data (the prime+probe
								// conflict array, the result and condition
								// blocks, shadow copies) is reserved, not stored.
								if n := imageDataBytes(out.Prog); n != 0 {
									t.Errorf("template image holds %d data bytes, want 0", n)
								}
								want, err := compileFresh(prod, d, d.gapCal, key)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(prod.progs[0], *want) {
									t.Errorf("trial %d key %#x: patched program != fresh compilation", trial, key)
								}
							}
						}
						checkCrossBitPatch(t, p)
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
			if _, _, err := r.prepare(0, d, 0, p.KeyPrefix); err != nil {
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

	// The attacked bit is patch data, not shape: one shape's 16 bits share
	// one cached template. Drive prepare through every bit of a 16-bit key
	// with one pinned draw and require at most one miss per victim and
	// attacker (the initial build), a hit for every other bit, and no
	// evictions.
	t.Run("bit-memo", func(t *testing.T) {
		const width = 16
		key := uint64(0xB5C3)
		for _, v := range victim.All() {
			for _, kind := range AllKinds() {
				p := DefaultParams(kind, false)
				p.Victim, p.Width = v.Name(), width
				r, err := newRunner(p)
				if err != nil {
					t.Fatal(err)
				}
				d := draw{seed0: 4242, noisePre: 7, noiseWin: 1, la: 20, lb: 90}
				h0, m0, e0 := tmplMemo.Counters()
				for bit := 0; bit < width; bit++ {
					r.p.Bit = bit
					if _, _, err := r.prepare(0, d, 0, key&(uint64(1)<<uint(bit+1)-1)); err != nil {
						t.Fatal(err)
					}
				}
				h1, m1, e1 := tmplMemo.Counters()
				if misses := m1 - m0; misses > 1 || h1-h0+misses != width {
					t.Errorf("%s/%s: %d bits took %d template misses and %d hits, want at most 1 miss",
						v.Name(), kind, width, misses, h1-h0)
				}
				if e1 != e0 {
					t.Errorf("%s/%s: template evictions changed (%d -> %d)", v.Name(), kind, e0, e1)
				}
			}
		}
	})
}

// checkCrossBitPatch builds p's trial template at each attacked bit of a
// W=4 key (bits 0-3) and a W=31 key (bits 0 and 30), patches it to every
// other bit of that width, and requires the result to equal a fresh
// compilation at the target bit, for a key with the bit clear and set.
func checkCrossBitPatch(t *testing.T, p Params) {
	t.Helper()
	for _, geom := range []struct {
		width int
		bits  []int
	}{{4, []int{0, 1, 2, 3}}, {31, []int{0, 30}}} {
		pw := p
		pw.Width, pw.Bit, pw.KeyPrefix = geom.width, 0, 0
		r, err := newRunner(pw)
		if err != nil {
			t.Fatal(err)
		}
		d := r.trialDraw(1)
		pattern := uint64(0x2AAAAAAA) & (uint64(1)<<uint(geom.width) - 1)
		for _, from := range geom.bits {
			r.p.Bit = from
			prog, err := r.buildProgram(d, d.gapCal, pattern)
			if err != nil {
				t.Fatal(err)
			}
			tmpl, err := compile.NewTemplate(prog, r.mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, to := range geom.bits {
				r.p.Bit = to
				low := pattern & (uint64(1)<<uint(to) - 1)
				for _, key := range []uint64{low, low | 1<<uint(to)} {
					if err := r.patch(0, tmpl, d, d.gapCal, key); err != nil {
						t.Fatal(err)
					}
					want, err := compileFresh(r, d, d.gapCal, key)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(r.progs[0], *want) {
						t.Errorf("W=%d: template built at bit %d, patched to bit %d key %#x != fresh compilation",
							geom.width, from, to, key)
					}
				}
			}
		}
	}
}

// compileFresh builds and compiles r's trial program from source, bypassing
// the template memo: the reference a patched template must equal.
func compileFresh(r *runner, d draw, gapSeed int64, key uint64) (*isa.Program, error) {
	prog, err := r.buildProgram(d, gapSeed, key)
	if err != nil {
		return nil, err
	}
	out, err := compile.Compile(prog, r.mode)
	if err != nil {
		return nil, err
	}
	return out.Prog, nil
}

// noSlotVictim reports one KeyInits value its fragment never declares, so no
// template of its programs has a slot for it.
type noSlotVictim struct{ victim.Victim }

func (v noSlotVictim) Name() string { return v.Victim.Name() + "-noslot" }

func (v noSlotVictim) KeyInits(key uint64, w, bit int, put func(name string, val int64)) {
	v.Victim.KeyInits(key, w, bit, put)
	put("noslot", 1)
}

// TestRunnerMissingSlotFailsFirstTrial: a victim whose KeyInits names a value
// with no patch slot breaks the template contract, and the runner reports
// that on its first trial as compile.ErrNotPatchable instead of running a
// program that ignores the value.
func TestRunnerMissingSlotFailsFirstTrial(t *testing.T) {
	for _, kind := range AllKinds() {
		p := DefaultParams(kind, false)
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		r.v = noSlotVictim{r.v}
		if _, _, _, err := r.calibPair(0); !errors.Is(err, compile.ErrNotPatchable) {
			t.Errorf("%s: first trial err = %v, want ErrNotPatchable", kind, err)
		}
	}
}

// imageDataBytes is the number of initialized data bytes a program image
// carries.
func imageDataBytes(p *isa.Program) int {
	n := 0
	for _, seg := range p.Data {
		n += len(seg.Bytes)
	}
	return n
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

// TestWarmBatchReusesRunners: batches borrow their runners from the
// per-architecture pool, so once a process has run a batch on an
// architecture, later batches there build no core and return exactly what a
// cold run (empty pool) returns. The key extraction and the prime+probe
// batch alternate attacker and victim on the same runners, so a runner not
// rebound to its batch shows as a changed row or observation vector (the
// total-cycles column depends on the victim's setup). The 2-worker case
// runs the pool's concurrent borrow and return; there a runner whose worker
// claimed no trial of an earlier batch builds its cores in a later one, so
// the gate is one runner's two cores (the measuring core and the one a
// calibration pair forks into) per worker however many batches run.
func TestWarmBatchReusesRunners(t *testing.T) {
	for _, secure := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", ArchName(secure), workers), func(t *testing.T) {
				drain := func() {
					pool := &runnerPools[archIndex(secure)]
					pool.mu.Lock()
					pool.free = nil
					pool.mu.Unlock()
				}
				kp := DefaultKeyParams(BPProbe, secure)
				kp.Width, kp.Trials, kp.Gap, kp.Workers = 3, 4, 2, workers
				bp := DefaultParams(PrimeProbe, secure)
				bp.Victim, bp.Width, bp.Bit, bp.KeyPrefix = "modexp", 3, 2, 1
				bp.Trials, bp.Workers = 3, workers

				drain()
				b0 := PerfSnapshot().CoreBuilds
				coldKey := mustJSON(t, mustExtract(t, kp))
				if PerfSnapshot().CoreBuilds == b0 {
					t.Fatal("cold run built no core; the pool was not empty")
				}
				drain()
				b1 := PerfSnapshot().CoreBuilds
				coldBatch := mustJSON(t, mustRunBatch(t, bp))
				b2 := PerfSnapshot().CoreBuilds
				warmKey := mustJSON(t, mustExtract(t, kp))
				warmBatch := mustJSON(t, mustRunBatch(t, bp))
				b3 := PerfSnapshot().CoreBuilds
				if b3-b1 > 2*uint64(workers) {
					t.Errorf("batches after emptying the pool built %d cores, want at most %d (two per worker)", b3-b1, 2*workers)
				}
				if workers == 1 && b3 != b2 {
					t.Errorf("warm batches built %d cores, want 0", b3-b2)
				}
				if warmKey != coldKey {
					t.Errorf("warm key recovery differs from the cold run:\n cold %s\n warm %s", coldKey, warmKey)
				}
				if warmBatch != coldBatch {
					t.Errorf("warm batch differs from the cold run:\n cold %s\n warm %s", coldBatch, warmBatch)
				}
			})
		}
	}
}

// TestFailedBatchNamesLowestTrial: a batch in which several trials fail
// returns the error of the lowest-indexed one at every worker count, the
// same error the serial path stops at, however the trials were scheduled.
func TestFailedBatchNamesLowestTrial(t *testing.T) {
	p := DefaultParams(BPProbe, false)
	p.Trials = 64
	for _, workers := range []int{1, 2, 4} {
		p.Workers = workers
		for rep := 0; rep < 50; rep++ {
			err := runTrials(p, func(_ *runner, t int) error {
				if t == 5 || t == 40 {
					return fmt.Errorf("trial %d failed", t)
				}
				return nil
			})
			if err == nil || err.Error() != "trial 5 failed" {
				t.Fatalf("workers=%d repetition %d: err = %v, want trial 5's", workers, rep, err)
			}
		}
	}
}

// mustRunBatch runs the per-bit engine on p, with the true key equal to
// p.KeyPrefix as RunAssessment does, and returns its fixed and random
// batches.
func mustRunBatch(t *testing.T, p Params) []*Batch {
	t.Helper()
	b, err := runBit(p, p.KeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	return []*Batch{b.fixed, b.random}
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
