package attack

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/victim"
)

// This file is the trial-throughput engine. The naive trial path (the
// runTrial reference the tests keep) rebuilds the attacker program's AST,
// recompiles it, constructs a fresh pipeline core, and computes every
// leak-channel digest per run — all of which is pure overhead for the
// attack drivers, which consume only the cycle count and the marker
// stamps. A runner removes all three costs:
//
//   - one pooled core per runner, Reset (not reallocated) between runs, with
//     the marker watch hook installed once — Core.Reset preserves hooks and
//     TestCoreResetDifferential pins reset==fresh equality;
//   - one compiled template per trial-invariant program shape, patched per
//     trial by rewriting only the prologue's load-immediate operands (see
//     compile.Template); any shape the patcher cannot prove data-only falls
//     back to a full recompilation;
//   - no digest computation: the runner reads Core.Cycles() directly, which
//     is exactly Observation.Cycles.
//
// Every random stream (trial draws, secrets) is reproduced exactly — the
// runner reseeds one owned rand.Rand per trial instead of allocating a new
// one — so batches are bit-identical to the naive path at any worker
// count; TestRunnerMatchesLegacy and TestParallelMatchesSerial pin this.

// tmplKey captures everything the attacker program's SHAPE depends on. Two
// trials with equal keys build structurally identical programs that differ
// only in scalar initial values (the patch slots): the key/prefix, the
// noise-chain seed, the gap-activity seed, and the prime+probe probed-set
// offsets ("pla"/"plb") are all data, while the draw fields that steer
// statement emission (noise op counts) and the batch geometry (victim,
// width, bit, gap) are part of the key.
type tmplKey struct {
	kind     Kind
	secure   bool
	victim   string
	width    int
	bit      int
	noisePre int
	noiseWin int
	gap      int
}

// tmplMemo is the process-wide template cache, shared by every runner.
var tmplMemo = compile.NewMemo[tmplKey]()

// Perf is a snapshot of the throughput engine's cumulative counters, the
// observability surface behind sempe-attack's perf block: template-cache
// effectiveness, core recycling, fallbacks to full recompilation, and the
// superblock engine's build/replay/legacy mix across all attack runs.
type Perf struct {
	TemplateHits      uint64 `json:"template_hits"`
	TemplateMisses    uint64 `json:"template_misses"`
	TemplateEvictions uint64 `json:"template_evictions"`
	// TemplateFallbacks counts full recompilations forced by a shape the
	// patcher could not prove data-only (non-patchable prologue, missing
	// slot, or immediate overflow).
	TemplateFallbacks uint64 `json:"template_fallbacks"`
	CoreBuilds        uint64 `json:"core_builds"`
	CoreResets        uint64 `json:"core_resets"`
	SBBuilds          uint64 `json:"sb_builds"`
	SBReplays         uint64 `json:"sb_replays"`
	// SBLegacyOps counts operations fetched by the per-instruction
	// reference walk; attack cores always replay, so it stays 0.
	SBLegacyOps uint64 `json:"sb_legacy_ops"`
	// SBWrongPathBuilds/SBWrongPathReplays are the slices of the above that
	// the flush logic attributed to squashed (never-committed) paths: work
	// the replay engine ran on mispredicted paths.
	SBWrongPathBuilds  uint64 `json:"sb_wrongpath_builds"`
	SBWrongPathReplays uint64 `json:"sb_wrongpath_replays"`
	// Trials and TrialSeconds measure batch throughput: trials completed
	// across all runTrials batches and the wall-clock seconds those batches
	// took (summed per batch, so parallel batches count once). Trials /
	// TrialSeconds is the engine's trials/s.
	Trials       uint64  `json:"trials"`
	TrialSeconds float64 `json:"trial_seconds"`
}

var perfCounters struct {
	fallbacks  atomic.Uint64
	coreBuilds atomic.Uint64
	coreResets atomic.Uint64
	sbBuilds   atomic.Uint64
	sbReplays  atomic.Uint64
	sbLegacy   atomic.Uint64
	sbWPBuilds atomic.Uint64
	sbWPReplay atomic.Uint64
	trials     atomic.Uint64
	trialNS    atomic.Uint64
}

// PerfSnapshot returns the cumulative throughput-engine counters.
func PerfSnapshot() Perf {
	h, m, e := tmplMemo.Counters()
	return Perf{
		TemplateHits:       h,
		TemplateMisses:     m,
		TemplateEvictions:  e,
		TemplateFallbacks:  perfCounters.fallbacks.Load(),
		CoreBuilds:         perfCounters.coreBuilds.Load(),
		CoreResets:         perfCounters.coreResets.Load(),
		SBBuilds:           perfCounters.sbBuilds.Load(),
		SBReplays:          perfCounters.sbReplays.Load(),
		SBLegacyOps:        perfCounters.sbLegacy.Load(),
		SBWrongPathBuilds:  perfCounters.sbWPBuilds.Load(),
		SBWrongPathReplays: perfCounters.sbWPReplay.Load(),
		Trials:             perfCounters.trials.Load(),
		TrialSeconds:       float64(perfCounters.trialNS.Load()) / 1e9,
	}
}

// runner owns one pooled core and all per-trial scratch. It is not safe for
// concurrent use; parallel batches run one runner per worker.
type runner struct {
	p    Params
	v    victim.Victim
	mode compile.Mode
	cfg  pipeline.Config

	core *pipeline.Core
	// prog is the program value the core executes; the fast path points its
	// Code at codeBuf (the patched copy) while sharing the template's data
	// segments, which the core only reads at load time.
	prog    isa.Program
	codeBuf []byte
	vals    []int64
	curTmpl *compile.Template
	putVal  func(name string, val int64)

	rng    *rand.Rand
	mrk    uint64
	stamps []uint64
	// watch, when non-nil, is armed as the core's spec watch when the core
	// is built (TraceTrial); batch runners never set it.
	watch func(pipeline.SpecEvent)

	c0buf, c1buf, mbuf []float64
}

func newRunner(p Params) (*runner, error) {
	v, err := p.victimImpl()
	if err != nil {
		return nil, err
	}
	r := &runner{
		p:    p,
		v:    v,
		mode: compile.Plain,
		cfg:  pipeline.DefaultConfig(),
		rng:  rand.New(rand.NewSource(1)),
	}
	if p.Secure {
		r.mode, r.cfg = compile.SeMPE, pipeline.SecureConfig()
	}
	r.stamps = make([]uint64, 0, 8)
	// putVal is allocated once so the per-trial KeyInits callback does not
	// allocate a closure in the hot loop.
	r.putVal = func(name string, val int64) {
		if i, ok := r.curTmpl.SlotIndex(name); ok {
			r.vals[i] = val
		}
	}
	return r, nil
}

// trialDraw reproduces newDraw(trialRNG(effSeed, t), p) without allocating:
// reseeding the runner's rand.Rand yields the exact stream a fresh
// rand.New(rand.NewSource(seed)) would.
func (r *runner) trialDraw(t int) draw {
	r.rng.Seed(r.p.effSeed() ^ (int64(t)+1)*0x5E3779B97F4A7C15)
	return newDraw(r.rng, r.p)
}

// calibPair runs trial t's two calibration programs — replays of the
// trial's exact environment (same draw, so the same program layout and
// noise) with each known value of the attacked bit. Code placement and
// fetch effects cancel exactly between them, leaving only the
// microarchitectural signal — or, under SeMPE, nothing, in which case the
// classifier degenerates to a secret-independent tie. The returned slices
// alias runner-owned buffers and are valid until the next runner call.
func (r *runner) calibPair(t int) (d draw, c0, c1 []float64, err error) {
	d = r.trialDraw(t)
	if c0, err = r.run(d, d.gapCal, r.p.KeyPrefix, &r.c0buf); err != nil {
		return d, nil, nil, err
	}
	if c1, err = r.run(d, d.gapCal, r.p.KeyPrefix|1<<uint(r.p.Bit), &r.c1buf); err != nil {
		return d, nil, nil, err
	}
	return d, c0, c1, nil
}

// measure runs the live measurement for trial draw d against the true key.
func (r *runner) measure(d draw, key uint64) ([]float64, error) {
	return r.run(d, d.gapMeas, key, &r.mbuf)
}

// run executes one attacker program and fills *buf with the observation
// vector (reusing its backing array). The program comes from the template
// fast path when possible, from a full rebuild+recompile otherwise.
func (r *runner) run(d draw, gapSeed int64, key uint64, buf *[]float64) ([]float64, error) {
	out, wantStamps, err := r.prepare(d, gapSeed, key)
	if err != nil {
		return nil, err
	}
	mrk, ok := out.ArrayAddrs[markerArray]
	if !ok {
		return nil, fmt.Errorf("program has no %q marker array", markerArray)
	}
	r.mrk = mrk
	if r.core == nil {
		r.core = pipeline.New(r.cfg, &r.prog)
		r.core.MemWatch = func(addr uint64, write bool, cycle uint64) {
			if write && addr == r.mrk && len(r.stamps) < cap(r.stamps) {
				r.stamps = append(r.stamps, cycle)
			}
		}
		if r.watch != nil {
			r.core.SetSpecWatch(r.watch)
		}
		perfCounters.coreBuilds.Add(1)
	} else {
		r.core.Reset(&r.prog)
		perfCounters.coreResets.Add(1)
	}
	r.stamps = r.stamps[:0]
	if err := r.core.Run(); err != nil {
		return nil, err
	}
	sb := r.core.SBStats
	perfCounters.sbBuilds.Add(sb.Builds)
	perfCounters.sbReplays.Add(sb.Replays)
	perfCounters.sbLegacy.Add(sb.LegacyOps)
	perfCounters.sbWPBuilds.Add(sb.WrongPathBuilds)
	perfCounters.sbWPReplay.Add(sb.WrongPathReplays)
	if len(r.stamps) != wantStamps {
		return nil, fmt.Errorf("got %d marker stamps, want %d", len(r.stamps), wantStamps)
	}
	total := float64(r.core.Cycles())
	switch r.p.Kind {
	case BPProbe:
		*buf = append((*buf)[:0], float64(r.stamps[3]-r.stamps[2]), total)
	default: // PrimeProbe
		tA := float64(r.stamps[1] - r.stamps[0])
		tB := float64(r.stamps[2] - r.stamps[1])
		*buf = append((*buf)[:0], tA, tB, tA-tB, total)
	}
	return *buf, nil
}

// prepare points r.prog at the trial's program: a patched template copy on
// the fast path, a freshly compiled program otherwise.
func (r *runner) prepare(d draw, gapSeed int64, key uint64) (*compile.Output, int, error) {
	wantStamps := 4
	if r.p.Kind == PrimeProbe {
		wantStamps = 3
	}
	k := tmplKey{
		kind:     r.p.Kind,
		secure:   r.p.Secure,
		victim:   r.v.Name(),
		width:    r.p.width(),
		bit:      r.p.Bit,
		noisePre: d.noisePre,
		noiseWin: d.noiseWin,
		gap:      r.p.Gap,
	}
	tmpl := tmplMemo.Get(k)
	if tmpl == nil {
		prog, err := r.buildProgram(d, gapSeed, key)
		if err != nil {
			return nil, 0, err
		}
		tmpl, err = compile.NewTemplate(prog, r.mode)
		if err != nil {
			return nil, 0, err
		}
		if !r.templateUsable(tmpl) {
			perfCounters.fallbacks.Add(1)
			r.prog = *tmpl.Out.Prog
			return tmpl.Out, wantStamps, nil
		}
		tmplMemo.Put(k, tmpl)
		// The template was compiled with exactly this trial's values, so it
		// runs unpatched.
		r.prog = *tmpl.Out.Prog
		return tmpl.Out, wantStamps, nil
	}
	// Fast path: gather this trial's scalar values and patch them in.
	r.curTmpl = tmpl
	r.vals = append(r.vals[:0], tmpl.BaseInits()...)
	r.v.KeyInits(key, r.p.width(), r.p.Bit, r.putVal)
	r.putVal("nv", d.seed0)
	if r.p.Kind == PrimeProbe {
		idxVals := cacheIdxVals(d.la, d.lb)
		for i, name := range cacheIdxNames {
			r.putVal(name, idxVals[i])
		}
	}
	if r.p.Gap > 0 {
		r.putVal("gv", gapSeed)
	}
	code, ok := tmpl.Specialize(r.vals, r.codeBuf)
	if !ok {
		perfCounters.fallbacks.Add(1)
		out, err := r.compileFull(d, gapSeed, key)
		return out, wantStamps, err
	}
	r.codeBuf = code
	r.prog = *tmpl.Out.Prog
	r.prog.Code = code
	return tmpl.Out, wantStamps, nil
}

// templateUsable verifies the one-time conditions the patch fast path needs
// beyond raw prologue patchability: every value KeyInits reports, the
// noise-chain seed, and (when active) the gap seed must each have a patch
// slot. A template failing this is used once and never cached, so the batch
// degrades to full per-trial compilation instead of silently mispatching.
func (r *runner) templateUsable(t *compile.Template) bool {
	if !t.Patchable() {
		return false
	}
	ok := true
	need := func(name string) {
		if _, found := t.SlotIndex(name); !found {
			ok = false
		}
	}
	r.v.KeyInits(0, r.p.width(), r.p.Bit, func(name string, _ int64) { need(name) })
	need("nv")
	if r.p.Kind == PrimeProbe {
		for _, name := range cacheIdxNames {
			need(name)
		}
	}
	if r.p.Gap > 0 {
		need("gv")
	}
	return ok
}

// buildProgram builds the trial's lang program, the shared source of the
// template and fallback paths.
func (r *runner) buildProgram(d draw, gapSeed int64, key uint64) (*lang.Program, error) {
	frag := r.v.Fragment(key, r.p.width(), r.p.Bit)
	switch r.p.Kind {
	case BPProbe:
		return bpProgram(frag, d, gapSeed, r.p.Gap), nil
	case PrimeProbe:
		return cacheProgram(frag, d, gapSeed, r.p.Gap), nil
	}
	return nil, fmt.Errorf("unknown attacker kind %d", int(r.p.Kind))
}

func (r *runner) compileFull(d draw, gapSeed int64, key uint64) (*compile.Output, error) {
	prog, err := r.buildProgram(d, gapSeed, key)
	if err != nil {
		return nil, err
	}
	out, err := compile.Compile(prog, r.mode)
	if err != nil {
		return nil, err
	}
	r.prog = *out.Prog
	return out, nil
}

// runTrials drives trial indices [0, n) through fn on a pool of workers,
// one runner each. fn must be safe to call concurrently for distinct t and
// must confine its effects to per-t slots; all cross-trial statistics run
// serially after the pool drains, which is what keeps results bit-identical
// to the serial path at any worker count. workers <= 1 runs inline.
func runTrials(p Params, n, workers int, fn func(r *runner, t int) error) error {
	if workers > n {
		workers = n
	}
	// Throughput accounting: trials completed plus the batch's wall time
	// feed the sempe_attack_trials_total / _trial_seconds_total metric
	// families (trials/s). One atomic add per worker plus one per batch —
	// nothing allocates and nothing is added to the per-trial fast path,
	// so the zero-alloc and determinism gates are untouched.
	batchStart := time.Now()
	defer func() {
		perfCounters.trialNS.Add(uint64(time.Since(batchStart)))
	}()
	if workers <= 1 {
		r, err := newRunner(p)
		if err != nil {
			return err
		}
		for t := 0; t < n; t++ {
			if err := fn(r, t); err != nil {
				perfCounters.trials.Add(uint64(t))
				return err
			}
		}
		perfCounters.trials.Add(uint64(n))
		return nil
	}
	runners := make([]*runner, workers)
	for i := range runners {
		r, err := newRunner(p)
		if err != nil {
			return err
		}
		runners[i] = r
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, workers)
	)
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *runner) {
			defer wg.Done()
			completed := 0
			defer func() { perfCounters.trials.Add(uint64(completed)) }()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				if err := fn(r, t); err != nil {
					errs[i] = err
					return
				}
				completed++
			}
		}(i, r)
	}
	wg.Wait()
	// First error by worker index; which trials ran after a failure is
	// worker-timing dependent, but the error surfaced is not load-bearing
	// beyond aborting the batch.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cloneObs copies an observation vector out of a runner-owned buffer into a
// per-trial slot that survives the runner's next run.
func cloneObs(src []float64) []float64 {
	return append([]float64(nil), src...)
}
