package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// update rewrites every golden file under testdata/ from the current run
// instead of comparing against it. Use it only for a deliberate simulator
// change, and justify every resulting diff.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// checkGolden renders got as indented JSON and requires it to equal
// testdata/<name>.json byte for byte (-update rewrites the file instead).
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", filepath.FromSlash(name)+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s differs from the run:\nrun:\n%s\ngolden:\n%s", path, data, want)
	}
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// runSurface is the observable surface of a finished run: final
// architectural registers, every pipeline statistic, the commit, memory and
// predictor digests, and per-level cache statistics.
type runSurface struct {
	Regs         [isa.NumArchRegs]uint64
	Stats        Stats
	CommitDigest string
	MemDigest    string
	PredDigest   string
	IL1, DL1, L2 cache.Stats
}

func surfaceOf(c *Core) runSurface {
	return runSurface{
		Regs:         c.ArchRegs(),
		Stats:        c.Stats,
		CommitDigest: hex64(c.CommitDigest()),
		MemDigest:    hex64(c.MemDigest()),
		PredDigest:   hex64(c.BP.Digest()),
		IL1:          c.Hier.IL1.Stats,
		DL1:          c.Hier.DL1.Stats,
		L2:           c.Hier.L2.Stats,
	}
}

// specEventFields is the number of SpecEvent fields specStreamHash folds;
// a new field must be added to the hash before the goldens can cover it.
const specEventFields = 14

// specStreamHash is an ordered FNV-64 digest over every field of every
// event: two streams hash equal only if they agree event for event.
func specStreamHash(events []SpecEvent) uint64 {
	h := uint64(isa.DigestSeed)
	for _, ev := range events {
		for _, w := range [...]uint64{
			ev.Cycle, ev.Seq, ev.PC, ev.Addr,
			uint64(ev.SquashedROB)<<32 | uint64(ev.DroppedFE),
			uint64(ev.Lat)<<32 | uint64(ev.Kind)<<24 | uint64(ev.Disp)<<16 | uint64(ev.Cause)<<8 | uint64(ev.Level),
			b2u(ev.Taken)<<2 | b2u(ev.Mispredict)<<1 | b2u(ev.Write),
		} {
			h = isa.DigestMix(h, w)
		}
	}
	return h
}

// specStreamSurface pins one armed run's spec-event stream (too long to
// store event by event) together with the run's statistics.
type specStreamSurface struct {
	Events       int
	Kinds        map[string]int
	Hash         string
	CommitDigest string
	Stats        Stats
}

func specSurfaceOf(events []SpecEvent, c *Core) specStreamSurface {
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind.String()]++
	}
	return specStreamSurface{
		Events:       len(events),
		Kinds:        kinds,
		Hash:         hex64(specStreamHash(events)),
		CommitDigest: hex64(c.CommitDigest()),
		Stats:        c.Stats,
	}
}

// obsStream pins a watch-hook observation stream by length and an ordered
// FNV-64 digest over every observation.
type obsStream struct {
	Count int
	Hash  string
}

func obsStreamOf(s []obs) obsStream {
	h := uint64(isa.DigestSeed)
	for _, o := range s {
		h = isa.DigestMix(isa.DigestMix(isa.DigestMix(h, o.a), o.b), b2u(o.flag1)<<1|b2u(o.flag2))
	}
	return obsStream{Count: len(s), Hash: hex64(h)}
}

func TestSpecStreamHashCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(SpecEvent{}).NumField(); n != specEventFields {
		t.Fatalf("SpecEvent has %d fields, specStreamHash folds %d: add the new ones", n, specEventFields)
	}
}
