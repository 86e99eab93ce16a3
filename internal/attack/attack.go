// Package attack is the attack lab: concrete microarchitectural attackers
// that run *attacker programs* on the simulated core against a victim
// parameterized by a secret, and measure what a realistic adversary
// measures — per-trial timing vectors, not digest equality.
//
// Two attacker families are implemented:
//
//   - BPProbe, a Spectre-PHT-style branch-predictor probe: the victim's
//     secret branch trains the TAGE bimodal state in place, and the
//     attacker then re-executes the same static branch with a known input,
//     timing the mispredict-dependent probe segment (Kocher et al.;
//     Chowdhuryy & Yao, "Leaking Secrets through Modern Branch
//     Predictors").
//   - PrimeProbe, a prime+probe DL1 conflict attack: the attacker fills
//     both ways of two chosen cache sets, the victim performs one
//     secret-selected load that evicts the attacker's line from one of
//     them, and the attacker times a per-set reload.
//
// The victim is pluggable (internal/victim): each attacker is a scaffold
// that wraps a victim's secret-dependent fragment — its setup computation
// and the attacked bit's condition — in the measurement protocol. A trial
// batch attacks one bit of a W-bit key; attack.ExtractKey (key.go) walks
// the whole key bit by bit and aggregates per-bit assessments into a
// KeyRecovery.
//
// Timing is measured the way the paper's threat model allows: marker
// stores in the attacker program are timestamped at commit through the
// core's MemWatch hook, so a trial yields the cycle length of each probe
// segment. Every trial builds, compiles, and runs fresh programs with
// per-trial public randomness (noise work, probed-set selection) drawn
// from a seeded deterministic stream, so batches are exactly reproducible
// and pairable across architectures.
//
// internal/stattest turns trial batches into the statistical verdicts
// (TVLA fixed-vs-random, mutual information, recovery rate); assess.go
// bundles them into one Assessment.
package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/victim"
)

// Kind identifies an attacker implementation.
type Kind int

// The implemented attackers.
const (
	BPProbe    Kind = iota // branch-predictor probe (Spectre-PHT style)
	PrimeProbe             // DL1 prime+probe conflict attack
)

// AllKinds returns every attacker, in report order.
func AllKinds() []Kind { return []Kind{BPProbe, PrimeProbe} }

func (k Kind) String() string {
	switch k {
	case BPProbe:
		return "bp"
	case PrimeProbe:
		return "cache"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("attack: unknown attacker %q (have bp|cache)", s)
}

// ArchName names the attacked architecture for reports: the unprotected
// baseline or the SeMPE-protected core.
func ArchName(secure bool) string {
	if secure {
		return "sempe"
	}
	return "baseline"
}

// ParseArch is the inverse of ArchName.
func ParseArch(s string) (secure bool, err error) {
	switch s {
	case "baseline":
		return false, nil
	case "sempe":
		return true, nil
	}
	return false, fmt.Errorf("attack: unknown arch %q (have baseline|sempe)", s)
}

// Params parameterizes one trial batch — the attack on one bit of a key.
// The zero values of the victim fields reproduce the PR-4 behavior (the
// direct one-bit victim, no gap noise), so stored spectre/tvla results
// stay valid.
type Params struct {
	Kind   Kind  `json:"kind"`
	Secure bool  `json:"secure"` // false = unprotected baseline, true = SeMPE
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`
	// Noise bounds the per-trial in-window public noise work (operations
	// inside the measured probe segment), drawn uniformly from [0, Noise].
	// It models environmental jitter a real measurement would see; the
	// default keeps it below half the microarchitectural signal so the
	// calibrated classifier stays reliable on the baseline.
	Noise int `json:"noise"`
	// Victim names the victim implementation (internal/victim); empty
	// means "bit", the PR-4 direct one-bit victim.
	Victim string `json:"victim,omitempty"`
	// Width is the victim's key width in bits; 0 means 1.
	Width int `json:"width,omitempty"`
	// Bit is the attacked bit position (0-based, LSB first).
	Bit int `json:"bit,omitempty"`
	// KeyPrefix carries the already-recovered key bits below Bit; the
	// victim's setup runs on them. Bits at and above Bit must be clear.
	KeyPrefix uint64 `json:"key_prefix,omitempty"`
	// Gap is the attacker-strength axis: the number of units of dummy
	// branch/memory activity injected between the victim's training and
	// the attacker's probe. 0 models the strongest attacker (immediate
	// probe); larger values model an attacker that cannot schedule its
	// probe tightly, so uncontrolled activity pollutes predictor and cache
	// state in between. The activity is deterministic per run but drawn
	// independently for the live measurement and its calibration replays,
	// which is what makes it degrade the calibrated classifier.
	Gap int `json:"gap,omitempty"`
	// Workers bounds the trial fan-out (scenario.Grid): trials simulate
	// concurrently on up to Workers pooled cores, with all statistics still
	// computed in trial order, so results — and the error of a failed
	// batch, its lowest-indexed failing trial's — are identical to the
	// serial path at any value. <= 1 runs serially. Excluded from JSON so
	// stored batch keys and reports are identical whatever parallelism
	// produced them.
	Workers int `json:"-"`
}

// MaxTrials, MaxNoise and MaxGap bound a batch's Trials, Noise and Gap. A
// batch holds every trial's observations until it ends, and Noise unrolls
// up to that many operations into each trial program, so past the first two
// a request would exhaust memory and kill the process instead of failing
// with an error; every trial program runs Gap units of activity, so at a
// gap of 1e9 one trial simulates for hours. All sit far above any sweep's
// default (100 trials, noise 2, gaps up to 512).
const (
	MaxTrials = 1 << 16
	MaxNoise  = 256
	MaxGap    = 4096
)

// DefaultParams returns the batch configuration the spectre/tvla scenarios
// and cmd/sempe-attack start from.
func DefaultParams(kind Kind, secure bool) Params {
	return Params{Kind: kind, Secure: secure, Trials: 100, Seed: 1, Noise: 2}
}

// width is Width with its documented default applied.
func (p Params) width() int {
	if p.Width == 0 {
		return 1
	}
	return p.Width
}

// victimImpl resolves the victim, defaulting to the direct one-bit victim.
func (p Params) victimImpl() (victim.Victim, error) {
	name := p.Victim
	if name == "" {
		name = "bit"
	}
	return victim.Lookup(name)
}

// effSeed derives the per-bit trial stream seed: bit 0 (and the whole
// legacy single-bit path) uses Seed unchanged, so PR-4 batches replay
// bit-identically; higher bits get independent deterministic streams.
func (p Params) effSeed() int64 {
	return p.Seed ^ int64(p.Bit)*0x6A09E667F3BCC909
}

// validate rejects out-of-range parameters loudly — silently substituting
// a default would let a store entry's key disagree with what was actually
// computed.
func (p Params) validate() error {
	switch p.Kind {
	case BPProbe, PrimeProbe:
	default:
		return fmt.Errorf("attack: unknown attacker kind %d", int(p.Kind))
	}
	if p.Trials <= 0 || p.Trials > MaxTrials {
		return fmt.Errorf("attack: trials: %d out of range [1,%d]", p.Trials, MaxTrials)
	}
	if p.Noise < 0 || p.Noise > MaxNoise {
		return fmt.Errorf("attack: noise: %d out of range [0,%d]", p.Noise, MaxNoise)
	}
	if p.Gap < 0 || p.Gap > MaxGap {
		return fmt.Errorf("attack: gap: %d out of range [0,%d]", p.Gap, MaxGap)
	}
	w := p.width()
	if w < 1 || w > victim.MaxWidth {
		return fmt.Errorf("attack: width: %d out of range [1,%d]", w, victim.MaxWidth)
	}
	if p.Bit < 0 || p.Bit >= w {
		return fmt.Errorf("attack: bit: %d out of range [0,%d]", p.Bit, w-1)
	}
	if p.KeyPrefix>>uint(p.Bit) != 0 {
		return fmt.Errorf("attack: key prefix %#x has bits at or above attacked bit %d", p.KeyPrefix, p.Bit)
	}
	if _, err := p.victimImpl(); err != nil {
		return err
	}
	return nil
}

// Trial is one attack trial: the victim's secret bit, the attacker's
// observation vector, and the attacker's guess after calibration.
type Trial struct {
	Secret uint64    `json:"secret"`
	Obs    []float64 `json:"obs"`
	Guess  uint64    `json:"guess"`
}

// Batch is a completed set of trials under one Params. Fixed labels the
// TVLA fixed batch, whose every trial has secret 1; the random batch draws
// each trial's secret from the seed's secret stream.
type Batch struct {
	Params  Params   `json:"params"`
	Fixed   bool     `json:"fixed"`
	Columns []string `json:"columns"`
	Trials  []Trial  `json:"trials"`
}

// Column extracts one observation column across trials.
func (b *Batch) Column(i int) []float64 {
	out := make([]float64, len(b.Trials))
	for j, t := range b.Trials {
		out[j] = t.Obs[i]
	}
	return out
}

// Secrets extracts the per-trial secret bits.
func (b *Batch) Secrets() []uint64 {
	out := make([]uint64, len(b.Trials))
	for j, t := range b.Trials {
		out[j] = t.Secret
	}
	return out
}

// Recovered counts trials whose guess matched the secret.
func (b *Batch) Recovered() int {
	n := 0
	for _, t := range b.Trials {
		if t.Guess == t.Secret {
			n++
		}
	}
	return n
}

// RecoveryRate is the fraction of trials whose guess matched the secret.
func (b *Batch) RecoveryRate() float64 {
	if len(b.Trials) == 0 {
		return 0
	}
	return float64(b.Recovered()) / float64(len(b.Trials))
}

// draw is the public per-trial randomness baked into a trial's programs:
// the attacker-chosen state (probed sets) and the trial's environment
// (noise-work amounts, noise seed). The measurement and its calibration
// runs share one draw — the attacker replays its exact environment with
// known inputs — so layout and fetch effects cancel in the classifier.
// The gap-activity seeds are the exception: the live measurement's gap
// activity (gapMeas) is drawn independently of the calibration replays'
// (gapCal), because that activity is exactly what the attacker cannot
// reproduce.
type draw struct {
	seed0    int64 // noise-chain seed
	noisePre int   // public noise ops outside the measured windows
	noiseWin int   // public noise ops inside the measured windows
	la, lb   int   // prime+probe: the two probed DL1 line indices
	gapCal   int64 // gap-activity seed shared by the calibration replays
	gapMeas  int64 // gap-activity seed of the live measurement
}

// noisePreMax bounds the out-of-window public noise work per trial. It
// varies alignment, predictor history, and fetch phase between trials
// without touching the measured segments.
const noisePreMax = 24

// cacheProbeLines is the pool of DL1 line offsets the prime+probe attacker
// draws its two probed sets from: [cacheProbeMin, cacheProbeMin+cacheProbePool).
// The pool stays clear of the marker array's set and of the sets aliased
// by the result block (see cacheProgram).
const (
	cacheProbeMin  = 16
	cacheProbePool = 224
)

func newDraw(rng *rand.Rand, p Params) draw {
	d := draw{
		seed0:    int64(rng.Intn(1 << 20)),
		noisePre: rng.Intn(noisePreMax + 1),
		noiseWin: rng.Intn(p.Noise + 1),
	}
	d.la = cacheProbeMin + rng.Intn(cacheProbePool)
	d.lb = cacheProbeMin + rng.Intn(cacheProbePool)
	for d.lb == d.la {
		d.lb = cacheProbeMin + rng.Intn(cacheProbePool)
	}
	// Drawn only when the gap axis is active, so legacy (Gap == 0) streams
	// are untouched and PR-4 batches replay bit-identically.
	if p.Gap > 0 {
		d.gapCal = int64(rng.Intn(1 << 20))
		d.gapMeas = int64(rng.Intn(1 << 20))
	}
	return d
}

// trialRNG derives the deterministic per-trial stream. It depends only on
// (seed, trial index), so the fixed and random TVLA batches draw identical
// noise and attacker state and differ only in the secret.
func trialRNG(seed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (int64(trial)+1)*0x5E3779B97F4A7C15))
}

// secretRNG is the separate stream secrets come from, so adding or
// removing a noise draw never changes which secrets a seed produces.
func secretRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x51F2B7 + 11))
}

// bitRun is one attacked bit's simulated batch: per trial the calibration
// pair and, where it could not be selected from the pair, the live
// measurement (nil elsewhere); plus the paired TVLA batches built from the
// pairs.
type bitRun struct {
	fixed, random *Batch
	trials        []trialRuns
}

type trialRuns struct {
	c0, c1, m []float64
}

// runBit is the attack lab's one trial engine: it attacks bit p.Bit of key.
// Each trial simulates its calibration pair, replays of the trial's exact
// environment with the attacked bit forced to 0 and 1 over p.KeyPrefix.
// An informative trial (its pair differs on the recovery statistic; the
// extractor discards the rest) also simulates the live measurement of key
// when that cannot be selected from the pair: with gap activity, or when
// p.KeyPrefix is not key's prefix.
// Trials simulate on pooled runners (runner.go) through scenario.Grid, in
// parallel when p.Workers > 1; the batches are assembled in trial order
// afterwards, and a failed batch returns its lowest-indexed failing trial's
// error, so output is identical at any worker count. The fixed and random
// batches share every pair and differ only in the secret.
func runBit(p Params, key uint64) (bitRun, error) {
	if err := p.validate(); err != nil {
		return bitRun{}, err
	}
	rec := recoveryColumn(p.Kind)
	measure := p.Gap > 0 || p.KeyPrefix != key&(uint64(1)<<uint(p.Bit)-1)
	runs := make([]trialRuns, p.Trials)
	err := runTrials(p, func(r *runner, t int) error {
		d, c0, c1, err := r.calibPair(t)
		var m []float64
		if err == nil && measure && c0[rec] != c1[rec] {
			m, err = r.measure(d, key&(uint64(1)<<uint(p.Bit+1)-1))
		}
		if err != nil {
			return fmt.Errorf("attack %s/%s trial %d: %w", p.Kind, ArchName(p.Secure), t, err)
		}
		runs[t] = trialRuns{cloneObs(c0), cloneObs(c1), cloneObs(m)}
		return nil
	})
	if err != nil {
		return bitRun{}, err
	}
	b := bitRun{
		fixed:  &Batch{Params: p, Fixed: true, Columns: columns(p.Kind)},
		random: &Batch{Params: p, Columns: columns(p.Kind)},
		trials: runs,
	}
	secRng := secretRNG(p.effSeed())
	for _, tr := range runs {
		b.fixed.Trials = append(b.fixed.Trials, makeTrial(p.Kind, 1, tr.c0, tr.c1))
		b.random.Trials = append(b.random.Trials, makeTrial(p.Kind, uint64(secRng.Intn(2)), tr.c0, tr.c1))
	}
	return b, nil
}

// makeTrial assembles one trial from its calibration pair. The
// measurement run is the same deterministic program as the matching
// calibration (same draw, same secret), so its observation is that
// calibration's — selected, not re-simulated.
// TestBaselineObservationsDiffer and TestSeMPEObservationsSecretIndependent
// pin the equality this relies on at the runTrial level.
//
// The appended derived columns are the attacker's post-processing: the
// recovery statistic centered on the calibration midpoint (cancels the
// trial's layout- and fetch-dependent baseline, leaving the signed
// microarchitectural signal), and its sign (the decoded verdict). These
// are what make the TVLA t saturate on a leaking target: the raw columns'
// inter-trial variance is calibration noise, not signal.
func makeTrial(k Kind, secret uint64, c0, c1 []float64) Trial {
	recCol := recoveryColumn(k)
	src := c0
	if secret == 1 {
		src = c1
	}
	obs := append([]float64(nil), src...)
	mid := (c0[recCol] + c1[recCol]) / 2
	centered := obs[recCol] - mid
	sign := 0.0
	switch {
	case centered > 0:
		sign = 1
	case centered < 0:
		sign = -1
	}
	obs = append(obs, centered, sign)
	return Trial{
		Secret: secret,
		Obs:    obs,
		Guess:  classify(obs[recCol], c0[recCol], c1[recCol]),
	}
}

// classify is the attacker's nearest-calibration classifier on the
// recovery statistic. Ties (including the fully degenerate SeMPE case
// where measurement and both calibrations coincide) resolve to 0, which
// keeps the guess independent of the secret when there is no signal.
func classify(x, c0, c1 float64) uint64 {
	d0, d1 := x-c0, x-c1
	if d0 < 0 {
		d0 = -d0
	}
	if d1 < 0 {
		d1 = -d1
	}
	if d1 < d0 {
		return 1
	}
	return 0
}

// columns names the observation vector per attacker. The last two are the
// derived post-processing columns appended by makeTrial.
func columns(k Kind) []string {
	switch k {
	case BPProbe:
		return []string{"probe-cycles", "total-cycles", "probe-centered", "probe-sign"}
	case PrimeProbe:
		return []string{"probe-a-cycles", "probe-b-cycles", "probe-diff", "total-cycles", "diff-centered", "diff-sign"}
	}
	panic("attack: unknown kind")
}

// recoveryColumn indexes the observation column the classifier uses: the
// probe-segment time for the predictor attack, the per-set probe
// difference for prime+probe.
func recoveryColumn(k Kind) int {
	switch k {
	case BPProbe:
		return 0
	case PrimeProbe:
		return 2
	}
	panic("attack: unknown kind")
}

// signColumn indexes the decoded-sign column (always last) — the
// mutual-information estimate runs over it.
func signColumn(k Kind) int { return len(columns(k)) - 1 }

// markerArray names the one-line array whose committed stores timestamp
// the measured segments. Declared first so it owns the first data line and
// its cache set never collides with the probed sets.
const markerArray = "mrk"

// noiseOps appends n cheap dependent ALU operations on the public noise
// chain nv — about two cycles each, so in-window jitter stays well under
// the microarchitectural signals (a ~8-cycle mispredict flush, a
// >=12-cycle probe miss).
func noiseOps(n int) []lang.Stmt {
	out := make([]lang.Stmt, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, lang.Set("nv",
			lang.B(lang.Add, lang.V("nv"), lang.B(lang.Shr, lang.V("nv"), lang.N(3)))))
	}
	return out
}

// gapLoop builds the attacker-strength gap activity: dummy branch +
// memory work between the victim's training and the attacker's probe.
// Each unit advances a public LCG, takes a data-dependent public branch
// on one of its bits (predictor-table and history pressure), and loads
// one element computed by `index` from `arr` (cache pressure). The LCG
// seed comes from the trial draw — independently for the measurement and
// its calibration replays — so the activity is deterministic per run but
// uncorrelated between them, exactly like background activity a weak
// attacker cannot control. `trip` is the trip-count expression (usually
// the constant n; the bp scaffold gates it branch-free on its iteration
// counter so the activity runs only between train and probe, not again
// after the probe).
func gapLoop(n int, trip lang.Expr, arr string, index func(gv lang.Expr) lang.Expr) []lang.Stmt {
	if n <= 0 {
		return nil
	}
	return []lang.Stmt{
		lang.Set("gj", trip),
		lang.Loop(lang.B(lang.Gt, lang.V("gj"), lang.N(0)), []lang.Stmt{
			lang.Set("gv", lang.B(lang.Add,
				lang.B(lang.Mul, lang.V("gv"), lang.N(48271)), lang.N(11))),
			lang.PublicIf(lang.B(lang.And, lang.B(lang.Shr, lang.V("gv"), lang.N(5)), lang.N(1)),
				[]lang.Stmt{lang.Set("ga", lang.B(lang.Add, lang.B(lang.Mul, lang.V("ga"), lang.N(3)), lang.N(1)))},
				[]lang.Stmt{lang.Set("ga", lang.B(lang.Add, lang.B(lang.Mul, lang.V("ga"), lang.N(5)), lang.N(7)))}),
			lang.Set("gl", index(lang.B(lang.And, lang.B(lang.Shr, lang.V("gv"), lang.N(3)), lang.N(0x7FFF)))),
			lang.Set("ga", lang.B(lang.Add, lang.V("ga"), lang.At(arr, lang.V("gl")))),
			lang.Set("gj", lang.B(lang.Sub, lang.V("gj"), lang.N(1))),
		}),
	}
}

// gapVars declares the gap activity's scalars; gapSeed differs between the
// live measurement and the calibration replays.
func gapVars(gapSeed int64) []*lang.VarDecl {
	return []*lang.VarDecl{
		{Name: "gv", Init: gapSeed},
		{Name: "gj"},
		{Name: "gl"},
		{Name: "ga", Init: 3},
	}
}
