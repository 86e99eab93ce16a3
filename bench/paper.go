package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/experiments"
	"repro/internal/jpegsim"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// The paper-sweep workload is the paper's evaluation as sempe-bench runs
// it: fig10a on its full grid (4 kernels x W=1..10), then fig8 on its full
// grid (3 formats x 4 sizes), sharing one RowCache. Each Fig. 10 program
// runs 2 iterations of its secure region instead of the default 8, so that
// a pass takes about 4 s and four passes fit in the run: the workload's
// latency takes each grid point's fastest pass. One operation and one work
// item are both one grid point.

const (
	// paperIters is the Fig. 10 harness iteration count of the benchmark grid.
	paperIters = 2
	// paperPassTime is one pass's nominal time on the calibration host.
	paperPassTime = 4 * time.Second
)

// paperGrid is one pass's grid, the same for the engine path and the
// public-call path the traced run takes.
type paperGrid struct {
	fig10 experiments.Fig10Spec
	fig8  experiments.Fig8Spec
}

func newPaperGrid(e *env) paperGrid {
	g := paperGrid{fig10: experiments.DefaultFig10Spec(), fig8: experiments.DefaultFig8Spec()}
	g.fig10.Iters = paperIters
	g.fig10.Secret, g.fig8.Seed = paperInputs(e.seed)
	if e.tiny {
		g.fig10.Kinds = []workloads.Kind{workloads.Fibonacci, workloads.Ones}
		g.fig10.Ws = []int{1, 2}
		g.fig10.Iters = 1
		g.fig8.Sizes = []jpegsim.Size{{Label: "tiny", Blocks: 2}}
	}
	return g
}

func (g paperGrid) points() int {
	return len(g.fig10.Kinds)*len(g.fig10.Ws) + len(jpegsim.Formats())*len(g.fig8.Sizes)
}

// specs encodes the grid as the two scenarios' engine parameters.
func (g paperGrid) specs() (fig10, fig8 scenario.Spec) {
	kinds := make([]string, len(g.fig10.Kinds))
	for i, k := range g.fig10.Kinds {
		kinds[i] = k.String()
	}
	ws := make([]string, len(g.fig10.Ws))
	for i, w := range g.fig10.Ws {
		ws[i] = strconv.Itoa(w)
	}
	sizes := make([]string, len(g.fig8.Sizes))
	for i, s := range g.fig8.Sizes {
		sizes[i] = fmt.Sprintf("%s:%d", s.Label, s.Blocks)
	}
	fig10 = scenario.Spec{Workers: 1, Params: map[string]string{
		"kinds": strings.Join(kinds, ","), "ws": strings.Join(ws, ","),
		"iters": strconv.Itoa(g.fig10.Iters), "secret": strconv.FormatUint(g.fig10.Secret, 10)}}
	fig8 = scenario.Spec{Workers: 1, Params: map[string]string{
		"sizes": strings.Join(sizes, ","), "sparsity": strconv.Itoa(g.fig8.Sparsity),
		"seed": strconv.FormatUint(g.fig8.Seed, 10)}}
	return fig10, fig8
}

// paperPass is one engine pass's rows and per-point host times.
type paperPass struct {
	fig10 []experiments.Fig10Row
	fig8  []experiments.Fig8Row
	latMS []float64
}

// sweepPass runs fig10a then fig8 through scenario.Run, timing each grid
// point from the engine's progress callbacks (serial workers, so
// consecutive callbacks bracket one point) and sampling host speed after
// each.
func sweepPass(g paperGrid, journal *obs.Journal, host *hostSpeed) (paperPass, error) {
	var p paperPass
	f10, f8 := g.specs()
	rows := scenario.NewRowCache()
	for _, run := range []struct {
		name string
		spec scenario.Spec
	}{{"fig10a", f10}, {"fig8", f8}} {
		sc, ok := scenario.Lookup(run.name)
		if !ok {
			return p, fmt.Errorf("scenario %q not registered", run.name)
		}
		prev, done := time.Now(), 0
		res, err := scenario.Run(sc, run.spec, scenario.RunOptions{
			Rows:    rows,
			Journal: journal,
			Progress: func(d, _ int) {
				if d > done {
					p.latMS = append(p.latMS, msSince(prev, time.Now()))
					host.sample()
					prev, done = time.Now(), d
				}
			},
		})
		if err != nil {
			return p, err
		}
		for _, r := range res.Rows {
			switch row := r.(type) {
			case experiments.Fig10Row:
				p.fig10 = append(p.fig10, row)
			case experiments.Fig8Row:
				p.fig8 = append(p.fig8, row)
			}
		}
	}
	return p, nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// cycles lists every cycle count of a pass in row order: per fig10 point
// baseline, SeMPE and CTE; per fig8 point baseline and SeMPE.
func (p paperPass) cycles() []uint64 {
	var out []uint64
	for _, r := range p.fig10 {
		out = append(out, r.BaseCycles, r.SeMPECycles, r.CTECycles)
	}
	for _, r := range p.fig8 {
		out = append(out, r.BaseCycles, r.SecureCycles)
	}
	return out
}

// cyclesDigest is FNV-1a over every cycle count: two commits whose digests
// for one seed match simulated the same behaviour.
func cyclesDigest(cycles []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cycles {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return h.Sum64()
}

// simResults are the paper's two headline numbers, in simulated time: the
// geometric mean of SeMPE's Fig. 10 slowdown over the ideal W+1, and the
// mean Fig. 8 djpeg overhead.
func (p paperPass) simResults(out map[string]float64) {
	logSum := 0.0
	for _, r := range p.fig10 {
		logSum += math.Log(r.SeMPESlowdown / r.Ideal)
	}
	over := 0.0
	for _, r := range p.fig8 {
		over += r.Overhead
	}
	out["sim.sempe_vs_ideal"] = math.Exp(logSum / float64(len(p.fig10)))
	out["sim.djpeg_overhead_pct"] = 100 * over / float64(len(p.fig8))
}

func runPaperSweep(e *env) (*outcome, error) {
	g := newPaperGrid(e)
	if err := e.ready(); err != nil {
		return nil, err
	}
	if e.trace {
		return tracePaperSweep(e, g)
	}
	o := newOutcome()
	var first paperPass
	var digest uint64
	pass := func(k int) bool {
		p, err := sweepPass(g, nil, &o.host)
		o.attempted += g.points()
		if err != nil {
			o.failed += g.points()
			o.wrong("pass %d: %v", k, err)
			return false
		}
		for i, ms := range p.latMS {
			o.addOp(strconv.Itoa(i), ms)
		}
		d := cyclesDigest(p.cycles())
		if k == 0 {
			first, digest = p, d
		} else if d != digest {
			o.wrong("pass %d: cycle digest %016x differs from the first pass's %016x", k, d, digest)
		}
		return true
	}
	o.wall = passes(e, paperPassTime, pass)
	if len(first.fig10) == 0 {
		return o, nil
	}
	o.batchResults(1)
	o.notes["sim.cycles_digest"] = fmt.Sprintf("%016x", digest)
	first.simResults(o.results)
	checkSampledPoints(e, g, first, o)
	return o, nil
}

// checkSampledPoints re-runs a few seeded, cheap grid points through the
// public calls and checks that their cycle counts equal the sweep's rows
// and that baseline and SeMPE leave every program variable equal. The
// traced run checks every point this way.
func checkSampledPoints(e *env, g paperGrid, p paperPass, o *outcome) {
	r := rngFor(e.seed, "paper-sweep/check")
	var cheap10 []int
	for i, row := range p.fig10 {
		if row.W <= 3 {
			cheap10 = append(cheap10, i)
		}
	}
	pr := newPointRunner(nil)
	for n := 0; n < 2 && len(cheap10) > 0; n++ {
		i := cheap10[r.Intn(len(cheap10))]
		row := p.fig10[i]
		got, err := pr.fig10(i, g.fig10, row.Kind, row.W)
		if err != nil {
			o.wrong("check %v W=%d: %v", row.Kind, row.W, err)
		} else if want := [3]uint64{row.BaseCycles, row.SeMPECycles, row.CTECycles}; got != want {
			o.wrong("check %v W=%d: public-call cycles %v differ from the sweep's %v", row.Kind, row.W, got, want)
		}
	}
	i := r.Intn(len(p.fig8))
	row := p.fig8[i]
	got, err := pr.fig8(len(p.fig10)+i, g.fig8, row.Format, jpegsim.Size{Label: row.Size, Blocks: row.Blocks})
	if err != nil {
		o.wrong("check %v/%s: %v", row.Format, row.Size, err)
	} else if want := [2]uint64{row.BaseCycles, row.SecureCycles}; got != want {
		o.wrong("check %v/%s: public-call cycles %v differ from the sweep's %v", row.Format, row.Size, got, want)
	}
}

// tracePaperSweep runs every grid point through the public calls the point
// functions make, one span per call, then the untraced engine pass over the
// same grid, and checks that every traced cycle count equals that pass's.
func tracePaperSweep(e *env, g paperGrid) (*outcome, error) {
	o := newOutcome()
	rec := newRecorder()
	pr := newPointRunner(rec)
	gs := startGoStats()
	start := time.Now()
	var got10 [][3]uint64
	var got8 [][2]uint64
	id := 0
	for _, k := range g.fig10.Kinds {
		for _, w := range g.fig10.Ws {
			c, err := pr.fig10(id, g.fig10, k, w)
			if err != nil {
				o.opFailed("point %v W=%d: %v", k, w, err)
			}
			got10 = append(got10, c)
			id++
		}
	}
	for _, f := range jpegsim.Formats() {
		for _, s := range g.fig8.Sizes {
			c, err := pr.fig8(id, g.fig8, f, s)
			if err != nil {
				o.opFailed("point %v/%s: %v", f, s.Label, err)
			}
			got8 = append(got8, c)
			id++
		}
	}
	o.wall = time.Since(start)
	gs.stop(o.layers)
	o.attempted = id
	o.spans = rec.snapshot()
	for i, ms := range millis(o.spans, "point") {
		o.addOp(strconv.Itoa(i), ms)
	}
	pr.layers(o.spans, o.layers)

	journal := obs.NewJournal()
	ref, err := sweepPass(g, journal, nil)
	if err != nil {
		o.wrong("untraced pass: %v", err)
		return o, nil
	}
	for i, r := range ref.fig10 {
		if want := [3]uint64{r.BaseCycles, r.SeMPECycles, r.CTECycles}; got10[i] != want {
			o.opFailed("point %v W=%d: traced cycles %v differ from the untraced row's %v", r.Kind, r.W, got10[i], want)
		}
	}
	for i, r := range ref.fig8 {
		if want := [2]uint64{r.BaseCycles, r.SecureCycles}; got8[i] != want {
			o.opFailed("point %v/%s: traced cycles %v differ from the untraced row's %v", r.Format, r.Size, got8[i], want)
		}
	}
	scenarioLayers(journal, o.layers)
	return o, nil
}

// scenarioLayers derives the sweep engine's numbers from its own journal:
// per-point times and the sweep time spent outside points.
func scenarioLayers(j *obs.Journal, layers map[string]float64) {
	var pointMS []float64
	sweepMS := 0.0
	for _, ev := range j.Events() {
		if ev.Phase != "end" {
			continue
		}
		switch ev.Name {
		case "point":
			pointMS = append(pointMS, float64(ev.DurUS)/1e3)
		case "sweep":
			sweepMS += float64(ev.DurUS) / 1e3
		}
	}
	layers["scenario.points"] = float64(len(pointMS))
	layers["scenario.point_ms_p50"] = median(pointMS)
	layers["scenario.point_ms_max"] = maxOf(pointMS)
	layers["scenario.overhead_ms"] = sweepMS - sum(pointMS)
}

// pointRunner makes, for one grid point, the public calls the experiments
// point functions make — build the program, compile it, take a core from a
// per-configuration pool, run it, read its statistics, recycle the core —
// recording one span per call when rec is non-nil.
type pointRunner struct {
	rec          *recorder
	base, secure *pipeline.Prototype
	sums         map[string]float64 // simulated counters, summed over runs
}

func newPointRunner(rec *recorder) *pointRunner {
	return &pointRunner{
		rec:    rec,
		base:   pipeline.NewPrototype(pipeline.DefaultConfig(), nil),
		secure: pipeline.NewPrototype(pipeline.SecureConfig(), nil),
		sums:   map[string]float64{},
	}
}

// build records the program builder's call.
func (pr *pointRunner) build(id, parent int, name string, fn func() *lang.Program) *lang.Program {
	h := pr.rec.begin(name, "lang", id, 1, parent)
	defer pr.rec.end(h)
	return fn()
}

func (pr *pointRunner) fig10(id int, spec experiments.Fig10Spec, kind workloads.Kind, w int) ([3]uint64, error) {
	root := pr.rec.begin("point", "scenario", id, 1, 0)
	defer pr.rec.end(root)
	hs := workloads.HarnessSpec{Kind: kind, W: w, I: spec.Iters, Secret: spec.Secret}
	structured := pr.build(id, root, "workloads.Harness", func() *lang.Program { return workloads.Harness(hs) })
	base, err := pr.simulate(id, root, "base", structured, compile.Plain)
	if err != nil {
		return [3]uint64{}, err
	}
	sec, err := pr.simulate(id, root, "sempe", structured, compile.SeMPE)
	if err != nil {
		return [3]uint64{}, err
	}
	ct := pr.build(id, root, "workloads.HarnessCT", func() *lang.Program { return workloads.HarnessCT(hs) })
	cte, err := pr.simulate(id, root, "cte", ct, compile.Plain)
	if err != nil {
		return [3]uint64{}, err
	}
	return [3]uint64{base.cycles, sec.cycles, cte.cycles}, sameVars(base, sec)
}

func (pr *pointRunner) fig8(id int, spec experiments.Fig8Spec, f jpegsim.Format, size jpegsim.Size) ([2]uint64, error) {
	root := pr.rec.begin("point", "scenario", id, 1, 0)
	defer pr.rec.end(root)
	img := jpegsim.ImageSpec{Format: f, Blocks: size.Blocks, Sparsity: spec.Sparsity, Seed: spec.Seed}
	p := pr.build(id, root, "jpegsim.BuildProgram", func() *lang.Program { return jpegsim.BuildProgram(img) })
	base, err := pr.simulate(id, root, "base", p, compile.Plain)
	if err != nil {
		return [2]uint64{}, err
	}
	sec, err := pr.simulate(id, root, "sempe", p, compile.SeMPE)
	if err != nil {
		return [2]uint64{}, err
	}
	return [2]uint64{base.cycles, sec.cycles}, sameVars(base, sec)
}

// simRun is what one simulation leaves behind: its cycle count and the
// final value of every program variable.
type simRun struct {
	cycles uint64
	vars   map[string]uint64
}

// sameVars checks SeMPE's correctness property on one program: executing
// every secret path still leaves each variable as the baseline does.
func sameVars(base, sec simRun) error {
	for name, v := range base.vars {
		if s, ok := sec.vars[name]; !ok || s != v {
			return fmt.Errorf("variable %s: baseline %d, SeMPE %d", name, v, s)
		}
	}
	return nil
}

// simulate compiles prog under mode and runs it on a pooled core of the
// architecture: "sempe" on the secure configuration, "base" and "cte" on
// the baseline one.
func (pr *pointRunner) simulate(id, parent int, arch string, prog *lang.Program, mode compile.Mode) (simRun, error) {
	h := pr.rec.begin("compile.Compile", "compile", id, 1, parent)
	out, err := compile.Compile(prog, mode)
	pr.rec.end(h)
	if err != nil {
		return simRun{}, err
	}
	proto := pr.base
	if arch == "sempe" {
		proto = pr.secure
	}
	h = pr.rec.begin("Prototype.NewCoreFor", "pipeline", id, 1, parent)
	core := proto.NewCoreFor(out.Prog)
	pr.rec.end(h)

	h = pr.rec.begin("Core.Run", "pipeline", id, 1, parent)
	err = core.Run()
	if err == nil {
		pr.count(arch, core)
	}
	pr.rec.end(h)
	if err != nil {
		return simRun{}, fmt.Errorf("%s run: %w", arch, err)
	}
	r := simRun{cycles: core.Stats.Cycles, vars: make(map[string]uint64, len(out.VarOrder))}
	for _, name := range out.VarOrder {
		addr, err := out.ResultAddr(name)
		if err != nil {
			return simRun{}, err
		}
		r.vars[name] = core.Mem().Read64(addr)
	}
	h = pr.rec.begin("Prototype.Recycle", "pipeline", id, 1, parent)
	proto.Recycle(core)
	pr.rec.end(h)
	return r, nil
}

// count adds one finished core's statistics to the sums.
func (pr *pointRunner) count(arch string, c *pipeline.Core) {
	s, sb, m := c.Stats, c.SBStats, pr.sums
	m["pipeline.insts"] += float64(s.Insts)
	m["pipeline.cycles"] += float64(s.Cycles)
	m["pipeline.sb_builds"] += float64(sb.Builds)
	m["pipeline.sb_replays"] += float64(sb.Replays)
	m["pipeline.sb_legacy_ops"] += float64(sb.LegacyOps)
	m["pipeline.sb_wrongpath_replays"] += float64(sb.WrongPathReplays)
	m["pipeline.wrong_path_fetches"] += float64(s.WrongPathFetches)
	m["pipeline.squashed_uops"] += float64(s.SquashedUops)
	m["pipeline.flushes_mispredict"] += float64(s.FlushMispredicts)
	m["pipeline.flushes_secure_redirect"] += float64(s.FlushSecRedirects)
	m["pipeline.flushes_overflow"] += float64(s.FlushOverflows)
	m["pipeline.drain_stall_cycles"] += float64(s.DrainStallCycles)
	m["pipeline.spm_stall_cycles"] += float64(s.SPMStallCycles)
	m["pipeline.fetch_stall_cycles"] += float64(s.FetchStallCycles)
	m["pipeline.nest_overflows"] += float64(s.NestOverflows)
	m["insts."+arch] += float64(s.Insts)
	m["cycles."+arch] += float64(s.Cycles)
	m["branches."+arch] += float64(s.Branches)
	m["mispredicts."+arch] += float64(s.BranchMispredicts)
	for level, st := range map[string]cache.Stats{"il1": c.Hier.IL1.Stats, "dl1": c.Hier.DL1.Stats, "l2": c.Hier.L2.Stats} {
		m[level+".accesses."+arch] += float64(st.Accesses)
		m[level+".misses."+arch] += float64(st.Misses)
	}
}

// layers turns the spans and sums into the per-layer metrics of the
// program builders, compiler and pipeline.
func (pr *pointRunner) layers(spans []span, out map[string]float64) {
	m := pr.sums
	for _, name := range []string{
		"pipeline.insts", "pipeline.cycles", "pipeline.sb_builds", "pipeline.sb_replays",
		"pipeline.sb_legacy_ops", "pipeline.sb_wrongpath_replays", "pipeline.wrong_path_fetches",
		"pipeline.squashed_uops", "pipeline.flushes_mispredict", "pipeline.flushes_secure_redirect",
		"pipeline.flushes_overflow", "pipeline.drain_stall_cycles", "pipeline.spm_stall_cycles",
		"pipeline.fetch_stall_cycles", "pipeline.nest_overflows",
	} {
		out[name] = m[name]
	}
	buildMS := 0.0
	for _, s := range spans {
		if s.layer == "lang" {
			buildMS += float64(s.dur()) / 1e6
		}
	}
	compiles := millis(spans, "compile.Compile")
	setups := millis(spans, "Prototype.NewCoreFor")
	runs := millis(spans, "Core.Run")
	runS := sum(runs) / 1e3
	out["lang.build_ms"] = buildMS
	out["compile.calls"] = float64(len(compiles))
	out["compile.ms_total"] = sum(compiles)
	out["compile.us_per_call"] = 1e3 * ratio(sum(compiles), float64(len(compiles)))
	out["pipeline.core_setups"] = float64(len(setups))
	out["pipeline.setup_ms_total"] = sum(setups)
	out["pipeline.runs"] = float64(len(runs))
	out["pipeline.run_s"] = runS
	out["pipeline.minst_per_s"] = ratio(m["pipeline.insts"], runS) / 1e6
	out["pipeline.ns_per_cycle"] = 1e9 * ratio(runS, m["pipeline.cycles"])
	out["pipeline.sb_replay_ratio"] = ratio(m["pipeline.sb_replays"], m["pipeline.sb_replays"]+m["pipeline.sb_legacy_ops"])
	out["pipeline.useful_fetch_ratio"] = ratio(m["pipeline.insts"], m["pipeline.insts"]+m["pipeline.wrong_path_fetches"])
	for _, arch := range []string{"base", "sempe", "cte"} {
		out["pipeline.ipc."+arch] = ratio(m["insts."+arch], m["cycles."+arch])
	}
	for _, arch := range []string{"base", "sempe"} {
		for _, l := range []string{"il1", "dl1", "l2"} {
			out["cache."+l+"_miss_ratio."+arch] = ratio(m[l+".misses."+arch], m[l+".accesses."+arch])
		}
		out["bpred.mispredict_ratio."+arch] = ratio(m["mispredicts."+arch], m["branches."+arch])
	}
}
