package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// specStream is one scenario's speculative-window event stream, recorded
// with a spec watch armed on every core. The trial engines run cores on
// parallel workers, so the stream is pinned as a multiset: per event kind,
// the number of events and the sum of a hash over every field. Flushes also
// keep their readable wrong-path accounting.
type specStream struct {
	Kinds   map[string]kindTally `json:"kinds"`
	Flushes flushTally           `json:"flushes"`
	// attackReplays is the micro-ops the replay engine fetched while the
	// scenario ran, when the scenario ran attack trials (0 otherwise). It
	// is not part of the golden file.
	attackReplays uint64
}

type kindTally struct {
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

// flushTally counts flush boundaries by cause and sums the wrong-path
// micro-ops they discarded from the renamed window and the fetch queue.
type flushTally struct {
	Causes      map[string]uint64 `json:"causes"`
	SquashedROB uint64            `json:"squashed_rob"`
	DroppedFE   uint64            `json:"dropped_fe"`
}

// specEventHash mixes every field of ev into one well-distributed word
// (a splitmix64 step per field), so per-kind sums digest the multiset.
func specEventHash(ev pipeline.SpecEvent) uint64 {
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	h := uint64(0x243f6a8885a308d3)
	for _, w := range [...]uint64{
		ev.Cycle, ev.Seq, ev.PC, ev.Addr,
		uint64(ev.SquashedROB)<<32 | uint64(ev.DroppedFE),
		uint64(ev.Lat)<<32 | uint64(ev.Kind)<<24 | uint64(ev.Disp)<<16 | uint64(ev.Cause)<<8 | uint64(ev.Level),
		bit(ev.Taken)<<2 | bit(ev.Mispredict)<<1 | bit(ev.Write),
	} {
		h ^= w
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// recordSpecStream runs sc at spec with a process-wide spec watch armed and
// tallies every event its cores deliver.
func recordSpecStream(t *testing.T, sc *scenario.Scenario, spec scenario.Spec) specStream {
	t.Helper()
	var mu sync.Mutex
	counts := map[pipeline.SpecKind]uint64{}
	sums := map[pipeline.SpecKind]uint64{}
	fl := flushTally{Causes: map[string]uint64{}}
	prev := pipeline.SetSpecWatchDefault(func(ev pipeline.SpecEvent) {
		h := specEventHash(ev)
		mu.Lock()
		defer mu.Unlock()
		counts[ev.Kind]++
		sums[ev.Kind] += h
		if ev.Kind == pipeline.SpecFlush {
			fl.Causes[ev.Cause.String()]++
			fl.SquashedROB += uint64(ev.SquashedROB)
			fl.DroppedFE += uint64(ev.DroppedFE)
		}
	})
	perf0 := attack.PerfSnapshot()
	_, err := scenario.Run(sc, spec, scenario.RunOptions{})
	pipeline.SetSpecWatchDefault(prev)
	if err != nil {
		t.Fatal(err)
	}
	s := specStream{Kinds: map[string]kindTally{}, Flushes: fl}
	if perf1 := attack.PerfSnapshot(); perf1.CoreBuilds+perf1.CoreResets != perf0.CoreBuilds+perf0.CoreResets {
		s.attackReplays = perf1.SBReplays - perf0.SBReplays
	}
	for k, n := range counts {
		s.Kinds[k.String()] = kindTally{Events: n, Digest: fmt.Sprintf("%016x", sums[k])}
	}
	return s
}

// diffSpecStreams records every registered scenario's spec stream at its
// reduced grid from scenarioTestSpecs and hands it to check together with
// the stream pinned in testdata/specstreams/<name>.json. It returns the
// recorded streams for grid-wide vacuity guards. -update rewrites the files
// from the current simulator, so it is only for a deliberate simulator
// change, and every resulting diff needs a stated reason.
func diffSpecStreams(t *testing.T, check func(t *testing.T, got, want specStream)) []specStream {
	t.Helper()
	var all []specStream
	for _, sc := range scenario.Scenarios() {
		spec, ok := scenarioTestSpecs[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no test spec; add one to scenarioTestSpecs", sc.Name)
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			got := recordSpecStream(t, sc, spec)
			all = append(all, got)
			dir := filepath.Join("testdata", "specstreams")
			path := filepath.Join(dir, sc.Name+".json")
			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want specStream
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			check(t, got, want)
		})
	}
	return all
}

// TestSuperblockDifferential pins every registered scenario's per-uop
// speculative activity: run with a spec watch armed on every core, each
// scenario must deliver exactly the per-uop spec events (every kind but
// flush: fetch, predictor lookups and updates, issue, execute, cache fills
// and evictions, commit) recorded in testdata/specstreams/<name>.json. The
// files were recorded from the per-instruction decode walk the replay
// engine replaced, so this holds the replay engine to the walk over the
// full evaluation surface. The test also checks that the armed cores of the
// scenarios running attack trials replayed.
func TestSuperblockDifferential(t *testing.T) {
	streams := diffSpecStreams(t, func(t *testing.T, got, want specStream) {
		kinds := map[string]bool{}
		for k := range got.Kinds {
			kinds[k] = true
		}
		for k := range want.Kinds {
			kinds[k] = true
		}
		delete(kinds, pipeline.SpecFlush.String())
		for k := range kinds {
			if g, w := got.Kinds[k], want.Kinds[k]; g != w {
				t.Errorf("%s events: %d (digest %s), golden %d (digest %s)",
					k, g.Events, g.Digest, w.Events, w.Digest)
			}
		}
	})
	var fetches, attackReplays uint64
	for _, s := range streams {
		fetches += s.Kinds[pipeline.SpecFetch.String()].Events
		attackReplays += s.attackReplays
	}
	if fetches == 0 {
		t.Error("spec watch armed across all scenarios but no fetch events fired")
	}
	if attackReplays == 0 {
		t.Error("armed attack cores replayed nothing")
	}
}

// TestWrongPathReplayDifferential is the wrong-path half of the same pin:
// every flush boundary of every registered scenario — its cycle, sequence
// number, cause, and the wrong-path micro-ops it squashed from the renamed
// window and dropped from the fetch queue — must match the golden
// recording. Those counts are how far the front end fetched down each
// mispredicted path before the redirect, so this pins wrong-path fetch at
// every flush boundary.
func TestWrongPathReplayDifferential(t *testing.T) {
	flush := pipeline.SpecFlush.String()
	streams := diffSpecStreams(t, func(t *testing.T, got, want specStream) {
		if g, w := got.Kinds[flush], want.Kinds[flush]; g != w {
			t.Errorf("flush events: %d (digest %s), golden %d (digest %s)",
				g.Events, g.Digest, w.Events, w.Digest)
		}
		if !reflect.DeepEqual(got.Flushes, want.Flushes) {
			t.Errorf("wrong-path accounting %+v, golden %+v", got.Flushes, want.Flushes)
		}
	})
	var mispredicts, wrongPath uint64
	for _, s := range streams {
		mispredicts += s.Flushes.Causes[pipeline.FlushMispredict.String()]
		wrongPath += s.Flushes.SquashedROB + s.Flushes.DroppedFE
	}
	if mispredicts == 0 || wrongPath == 0 {
		t.Errorf("grid exercised no wrong paths: %d mispredict flushes, %d wrong-path micro-ops", mispredicts, wrongPath)
	}
}
