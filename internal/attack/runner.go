package attack

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/scenario"
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
//     TestCoreResetDifferential pins reset==fresh equality; runners outlive
//     their batch in a per-architecture pool (runnerPools), so the bits of
//     a key and the rows of a sweep share the same cores;
//   - one compiled template per trial-invariant program shape, patched per
//     trial by rewriting only its immediate operands (see compile.Template);
//     the attacked bit is patch data, so every bit of a key shares a shape;
//     a shape the patcher cannot prove data-only, or a trial value with no
//     patch slot, is a compile.ErrNotPatchable error;
//   - no digest computation: the runner reads Core.Cycles() directly, which
//     is exactly Observation.Cycles;
//   - one simulated prefix per calibration pair: c0 stops at a drained cycle
//     in the program's fork window (forkLo..forkHi, just before the attacked
//     branch), and c1 continues from a copy of that core with c1's code and
//     the architectural state the functional emulator reached on c1 (fork).
//
// Every random stream (trial draws, secrets) is reproduced exactly — the
// runner reseeds one owned rand.Rand per trial instead of allocating a new
// one — so batches are bit-identical to the naive path at any worker
// count; TestRunnerMatchesLegacy and TestParallelMatchesSerial pin this.

// tmplKey captures everything the attacker program's SHAPE depends on. Two
// trials with equal keys build structurally identical programs that differ
// only in patch-slot values: the key/prefix, the attacked bit (the victims'
// bit slots), the noise-chain seed, the gap-activity seed, and the
// prime+probe probed-set offsets ("pla"/"plb") are all data, while the draw
// fields that steer statement emission (noise op counts) and the batch
// geometry (victim, width, gap) are part of the key. Every bit of a key
// therefore shares one template per shape.
type tmplKey struct {
	kind     Kind
	secure   bool
	victim   string
	width    int
	noisePre int
	noiseWin int
	gap      int
}

// tmplMemo is the process-wide template cache, shared by every runner.
var tmplMemo = compile.NewMemo[tmplKey]()

// Perf is a snapshot of the throughput engine's cumulative counters, the
// observability surface behind sempe-attack's perf block: template-cache
// effectiveness, core recycling, and the decode cache's decode/replay mix,
// which pipeline.Core.Run publishes for every core in the process.
type Perf struct {
	TemplateHits      uint64 `json:"template_hits"`
	TemplateMisses    uint64 `json:"template_misses"`
	TemplateEvictions uint64 `json:"template_evictions"`
	// TemplateFallbacks and SBLegacyOps are always 0: every trial runs a
	// patched template and every fetch replays. They are kept so the
	// benchmark's attack.template_fallbacks and pipeline.sb_legacy_ops
	// columns keep their schema.
	TemplateFallbacks uint64 `json:"template_fallbacks"`
	CoreBuilds        uint64 `json:"core_builds"`
	CoreResets        uint64 `json:"core_resets"`
	SBBuilds          uint64 `json:"sb_builds"`
	SBReplays         uint64 `json:"sb_replays"`
	SBLegacyOps       uint64 `json:"sb_legacy_ops"`
	// SBWrongPathBuilds/SBWrongPathReplays are the slices of the above that
	// the flush logic attributed to squashed (never-committed) paths: work
	// fetch ran on mispredicted paths.
	SBWrongPathBuilds  uint64 `json:"sb_wrongpath_builds"`
	SBWrongPathReplays uint64 `json:"sb_wrongpath_replays"`
	// Trials and TrialSeconds measure batch throughput: trials completed
	// across all runTrials batches and the wall-clock seconds those batches
	// took (summed per batch, so parallel batches count once). Trials /
	// TrialSeconds is the engine's trials/s.
	Trials       uint64  `json:"trials"`
	TrialSeconds float64 `json:"trial_seconds"`
	// Forks counts calibration pairs whose c1 continued from a copy of c0's
	// core at the fork window; ForkMisses counts pairs that could have
	// forked (no spec watch armed) but simulated c1 in full, because c0
	// never drained inside the window or the emulator's c1 prefix did not
	// match it.
	Forks      uint64 `json:"forks"`
	ForkMisses uint64 `json:"fork_misses"`
}

var perfCounters struct {
	coreBuilds atomic.Uint64
	coreResets atomic.Uint64
	trials     atomic.Uint64
	trialNS    atomic.Uint64
	forks      atomic.Uint64
	forkMisses atomic.Uint64
}

// PerfSnapshot returns the cumulative throughput-engine counters.
func PerfSnapshot() Perf {
	h, m, e := tmplMemo.Counters()
	sb := pipeline.GlobalSpecCounters()
	return Perf{
		TemplateHits:       h,
		TemplateMisses:     m,
		TemplateEvictions:  e,
		CoreBuilds:         perfCounters.coreBuilds.Load(),
		CoreResets:         perfCounters.coreResets.Load(),
		SBBuilds:           sb.SBBuilds,
		SBReplays:          sb.SBReplays,
		SBWrongPathBuilds:  sb.SBWrongPathBuilds,
		SBWrongPathReplays: sb.SBWrongPathReplays,
		Trials:             perfCounters.trials.Load(),
		TrialSeconds:       float64(perfCounters.trialNS.Load()) / 1e9,
		Forks:              perfCounters.forks.Load(),
		ForkMisses:         perfCounters.forkMisses.Load(),
	}
}

// runner owns two pooled cores, an emulator and all per-trial scratch. It
// is not safe for concurrent use; a trial holds its runner from borrow to
// release. p and v are the current batch's, rebound on every borrow;
// everything else depends only on the architecture (mode, cfg) or is
// rewritten per run.
type runner struct {
	p    Params
	v    victim.Victim
	mode compile.Mode
	cfg  pipeline.Config

	// core runs c0, the measurement, and every run that does not fork;
	// second runs a calibration pair's forked c1; emu runs c1's prefix to
	// supply its architectural state at the fork.
	core   *pipeline.Core
	second *pipeline.Core
	emu    *emu.Machine
	// progs are the program values the cores execute: progs[0] for core's
	// run, progs[1] for the forked c1, which runs alongside c0's rest. Each
	// points its Code at its own patched copy in codeBufs while sharing the
	// template's data segments, which a core only reads at load time.
	progs    [2]isa.Program
	codeBufs [2][]byte
	vals     []int64
	curTmpl  *compile.Template
	putVal   func(name string, val int64)
	missing  string // a value putVal found no slot for, "" when none

	rng    *rand.Rand
	mrk    uint64
	stamps []uint64
	// forkStamps are c0's marker stamps at the fork, c1's from there on.
	forkStamps []uint64
	// watch, when non-nil, is armed as the core's spec watch when the core
	// is built (TraceTrial); batch runners never set it.
	watch func(pipeline.SpecEvent)

	c0buf, c1buf, mbuf []float64
}

// The fork window's markers. Each attack program opens the window where
// its pipeline reliably drains (bp: after the spin loop; prime+probe: after
// the prime loads) and closes it right before the attacked SecretIf.
const (
	forkLo = "fork.lo"
	forkHi = "fork.hi"
)

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
	r.forkStamps = make([]uint64, 0, 8)
	// putVal is allocated once so the per-trial KeyInits callback does not
	// allocate a closure in the hot loop.
	r.putVal = func(name string, val int64) {
		if i, ok := r.curTmpl.SlotIndex(name); ok {
			r.vals[i] = val
		} else {
			r.missing = name
		}
	}
	return r, nil
}

// runnerPools holds the idle batch runners of each architecture (index 1
// for SeMPE, 0 for the baseline), their cores, rngs, patch buffers and
// observation buffers warm. Every trial borrows a runner and returns it, so
// a warm process builds no core per batch. A pool never holds more runners
// than were ever borrowed at once: one per concurrently running trial.
var runnerPools [2]struct {
	mu   sync.Mutex
	free []*runner
}

func archIndex(secure bool) int {
	if secure {
		return 1
	}
	return 0
}

// borrowRunner returns an idle runner of p's architecture rebound to p, or
// a new one when none is idle.
func borrowRunner(p Params) (*runner, error) {
	v, err := p.victimImpl()
	if err != nil {
		return nil, err
	}
	pool := &runnerPools[archIndex(p.Secure)]
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if n := len(pool.free); n > 0 {
		r := pool.free[n-1]
		pool.free = pool.free[:n-1]
		r.p, r.v = p, v
		return r, nil
	}
	return newRunner(p)
}

// releaseRunner returns a batch runner to its architecture's pool.
func releaseRunner(r *runner) {
	pool := &runnerPools[archIndex(r.p.Secure)]
	pool.mu.Lock()
	pool.free = append(pool.free, r)
	pool.mu.Unlock()
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
// classifier degenerates to a secret-independent tie. The two runs are the
// same machine until the attacked branch, so unless a spec watch is armed
// (a traced run must see every event of both) c1 forks from c0 there
// (fork); a pair that cannot fork runs c1 in full. The returned slices
// alias runner-owned buffers and are valid until the next runner call.
func (r *runner) calibPair(t int) (d draw, c0, c1 []float64, err error) {
	d = r.trialDraw(t)
	key1 := r.p.KeyPrefix | 1<<uint(r.p.Bit)
	want, err := r.load(d, d.gapCal, r.p.KeyPrefix)
	if err != nil {
		return d, nil, nil, err
	}
	forked := false
	if !r.core.SpecWatchArmed() {
		syms := r.progs[0].Symbols
		stopped, err := r.core.RunToFork(syms[forkLo], syms[forkHi])
		if err != nil {
			return d, nil, nil, err
		}
		if stopped {
			if forked, err = r.fork(d, key1); err != nil {
				return d, nil, nil, err
			}
		}
		if forked {
			perfCounters.forks.Add(1)
		} else {
			perfCounters.forkMisses.Add(1)
		}
	}
	if err := r.core.Run(); err != nil {
		return d, nil, nil, err
	}
	if c0, err = r.observe(r.core, want, &r.c0buf); err != nil {
		return d, nil, nil, err
	}
	if !forked {
		c1, err = r.run(d, d.gapCal, key1, &r.c1buf)
		return d, c0, c1, err
	}
	r.stamps = append(r.stamps[:0], r.forkStamps...)
	if err := r.second.Run(); err != nil {
		return d, nil, nil, err
	}
	c1, err = r.observe(r.second, want, &r.c1buf)
	return d, c0, c1, err
}

// fork sets c1 (key) up on the second core from r.core, which RunToFork
// stopped at a drained cycle in the fork window. The emulator runs c1 to
// the core's committed-instruction count; only if it then stands at the
// core's fetch PC with the core's commit and memory digests — c1's prefix
// committed the same instructions and accessed the same addresses — does
// the second core become a copy of r.core carrying c1's code, registers
// and memory. It reports whether it forked.
func (r *runner) fork(d draw, key uint64) (bool, error) {
	if _, _, err := r.prepare(1, d, d.gapCal, key); err != nil {
		return false, err
	}
	prog, c := &r.progs[1], r.core
	mode := emu.Legacy
	if r.p.Secure {
		mode = emu.SeMPE
	}
	if r.emu == nil {
		r.emu = emu.New(mode, prog, r.cfg.SPM.Slots)
	} else {
		r.emu.Reset(mode, prog)
	}
	r.emu.OverflowNonSecure = r.cfg.OverflowNonSecure
	n := c.Stats.Insts
	if err := r.emu.RunTo(n); err != nil || r.emu.Insts != n || r.emu.PC != c.FetchPC() ||
		r.emu.CommitDigest != c.CommitDigest() || r.emu.MemDigest != c.MemDigest() {
		return false, nil
	}
	if r.second == nil {
		r.second = pipeline.New(r.cfg, prog)
		r.second.MemWatch = c.MemWatch
		perfCounters.coreBuilds.Add(1)
	}
	r.emu.Mem = r.second.Fork(c, prog, &r.emu.Regs, r.emu.Mem)
	r.forkStamps = append(r.forkStamps[:0], r.stamps...)
	return true, nil
}

// measure runs the live measurement for trial draw d against the true key.
func (r *runner) measure(d draw, key uint64) ([]float64, error) {
	return r.run(d, d.gapMeas, key, &r.mbuf)
}

// run executes one attacker program in full on the runner's core and fills
// *buf with the observation vector (reusing its backing array).
func (r *runner) run(d draw, gapSeed int64, key uint64, buf *[]float64) ([]float64, error) {
	want, err := r.load(d, gapSeed, key)
	if err != nil {
		return nil, err
	}
	if err := r.core.Run(); err != nil {
		return nil, err
	}
	return r.observe(r.core, want, buf)
}

// load points progs[0] at the program for (d, gapSeed, key) and readies the
// runner's core to run it from the start, building the core on first use.
// It returns the number of marker stamps the run must record.
func (r *runner) load(d draw, gapSeed int64, key uint64) (int, error) {
	out, wantStamps, err := r.prepare(0, d, gapSeed, key)
	if err != nil {
		return 0, err
	}
	mrk, ok := out.ArrayAddrs[markerArray]
	if !ok {
		return 0, fmt.Errorf("program has no %q marker array", markerArray)
	}
	r.mrk = mrk
	if r.core == nil {
		r.core = pipeline.New(r.cfg, &r.progs[0])
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
		r.core.Reset(&r.progs[0])
		perfCounters.coreResets.Add(1)
	}
	r.stamps = r.stamps[:0]
	return wantStamps, nil
}

// observe turns a finished run on core into its observation vector in *buf.
func (r *runner) observe(core *pipeline.Core, wantStamps int, buf *[]float64) ([]float64, error) {
	if len(r.stamps) != wantStamps {
		return nil, fmt.Errorf("got %d marker stamps, want %d", len(r.stamps), wantStamps)
	}
	total := float64(core.Cycles())
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

// prepare points progs[i] at the trial's program: the template for the
// trial's shape, compiled on a memo miss, with this trial's values patched
// in. A freshly compiled template already holds them, so patching it
// rewrites every slot with its own value, and every trial takes one path.
func (r *runner) prepare(i int, d draw, gapSeed int64, key uint64) (*compile.Output, int, error) {
	wantStamps := 4
	if r.p.Kind == PrimeProbe {
		wantStamps = 3
	}
	k := tmplKey{
		kind:     r.p.Kind,
		secure:   r.p.Secure,
		victim:   r.v.Name(),
		width:    r.p.width(),
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
		if tmpl, err = compile.NewTemplate(prog, r.mode); err != nil {
			return nil, 0, fmt.Errorf("attack: %s template: %w", r.v.Name(), err)
		}
		tmplMemo.Put(k, tmpl)
	}
	if err := r.patch(i, tmpl, d, gapSeed, key); err != nil {
		return nil, 0, err
	}
	return tmpl.Out, wantStamps, nil
}

// patch points progs[i] at a copy of tmpl's code in codeBufs[i] carrying
// this trial's values: the victim's key and attacked-bit slots
// (Victim.KeyInits), the noise-chain seed, the prime+probe probed-set
// offsets and the gap seed. Every other slot keeps the value the template
// was compiled with.
func (r *runner) patch(i int, tmpl *compile.Template, d draw, gapSeed int64, key uint64) error {
	r.curTmpl = tmpl
	r.missing = ""
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
	if r.missing != "" {
		return fmt.Errorf("attack: %s template: %w: no patch slot for %q",
			r.v.Name(), compile.ErrNotPatchable, r.missing)
	}
	code, err := tmpl.Specialize(r.vals, r.codeBufs[i])
	if err != nil {
		return fmt.Errorf("attack: %s template: %w", r.v.Name(), err)
	}
	r.codeBufs[i] = code
	r.progs[i] = *tmpl.Out.Prog
	r.progs[i].Code = code
	return nil
}

// buildProgram builds the trial's lang program, the source its template is
// compiled from.
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

// runTrials drives trial indices [0, p.Trials) through fn on scenario.Grid
// with p.Workers workers. Each trial borrows a runner from runnerPools and
// returns it when the trial succeeds; a failed trial drops its runner
// instead, so a core stopped mid-run is never handed on. fn must be safe to
// call concurrently for distinct t and must confine its effects to per-t
// slots; all cross-trial statistics run serially after the batch, which is
// what keeps results bit-identical to the serial path at any worker count.
// A failed batch returns its lowest-indexed failing trial's error, at any
// worker count too.
func runTrials(p Params, fn func(r *runner, t int) error) error {
	// Throughput accounting: trials completed plus the batch's wall time
	// feed the sempe_attack_trials_total / _trial_seconds_total metric
	// families (trials/s). Nothing allocates per trial, so the zero-alloc
	// and determinism gates are untouched.
	batchStart := time.Now()
	defer func() {
		perfCounters.trialNS.Add(uint64(time.Since(batchStart)))
	}()
	return scenario.Grid(p.Trials, p.Workers, func(t int) error {
		r, err := borrowRunner(p)
		if err != nil {
			return err
		}
		if err := fn(r, t); err != nil {
			return err
		}
		releaseRunner(r)
		perfCounters.trials.Add(1)
		return nil
	})
}

// cloneObs copies an observation vector out of a runner-owned buffer into a
// per-trial slot that survives the runner's next run.
func cloneObs(src []float64) []float64 {
	return append([]float64(nil), src...)
}
