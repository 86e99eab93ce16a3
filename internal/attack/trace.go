package attack

import (
	"repro/internal/pipeline"
)

// TraceTrial runs one attack trial program — the named victim's fragment for
// (key, width, bit) inside the attacker's measurement scaffold, with the
// trial's deterministic environment draw — on a runner whose core has fn
// armed as its spec watch, and returns the attacker's observation vector. It
// exists for cmd/sempe-trace: a single traced trial shows exactly which
// wrong-path work the attacker's probe reads back. The watch is armed on
// this trial's own core only, so simulations running concurrently in the
// same process are never traced, and fetch stays on the superblock replay
// engine the batch engines use. When p.Gap > 0 the trial replays the live
// measurement (independent gap seed), not a calibration replay.
func TraceTrial(p Params, trial int, key uint64, fn func(pipeline.SpecEvent)) ([]float64, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(p)
	if err != nil {
		return nil, err
	}
	r.watch = fn
	return r.measure(r.trialDraw(trial), key)
}
