package attack

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// TestTraceTrialMatchesRunTrial: TraceTrial runs on a runner — pooled-core
// construction, compiled template, the watch armed on that core alone — and
// must return exactly the observation vector and the complete spec event
// stream of the naive runTrial reference traced through the process-wide
// default, for both attackers, both architectures, with and without gap
// activity, and for both values of the attacked bit. The traced core must
// also stay on the superblock replay engine.
func TestTraceTrialMatchesRunTrial(t *testing.T) {
	const trial = 1
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			for _, gap := range []int{0, 64} {
				for _, key := range []uint64{0, 1} {
					t.Run(fmt.Sprintf("%s/%s/gap%d/key%d", kind, ArchName(secure), gap, key), func(t *testing.T) {
						p := DefaultParams(kind, secure)
						p.Gap = gap

						var got, want []pipeline.SpecEvent
						legacyBefore := PerfSnapshot().SBLegacyOps
						gotObs, err := TraceTrial(p, trial, key, func(ev pipeline.SpecEvent) { got = append(got, ev) })
						if err != nil {
							t.Fatal(err)
						}
						if n := PerfSnapshot().SBLegacyOps - legacyBefore; n != 0 {
							t.Errorf("traced trial fetched %d ops on the reference walk, want 0", n)
						}

						d := newDraw(trialRNG(p.effSeed(), trial), p)
						prev := pipeline.SetSpecWatchDefault(func(ev pipeline.SpecEvent) { want = append(want, ev) })
						wantObs, err := runTrial(p, d, d.gapMeas, key)
						pipeline.SetSpecWatchDefault(prev)
						if err != nil {
							t.Fatal(err)
						}

						if !reflect.DeepEqual(gotObs, wantObs) {
							t.Errorf("observation: TraceTrial %v != runTrial %v", gotObs, wantObs)
						}
						if len(got) == 0 {
							t.Fatal("TraceTrial delivered no spec events")
						}
						for i := 0; i < min(len(got), len(want)); i++ {
							if got[i] != want[i] {
								t.Fatalf("spec event %d differs:\nTraceTrial: %+v\nrunTrial:   %+v", i, got[i], want[i])
							}
						}
						if len(got) != len(want) {
							t.Fatalf("spec event streams differ in length: TraceTrial=%d runTrial=%d", len(got), len(want))
						}
					})
				}
			}
		}
	}
}
