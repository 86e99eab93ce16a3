package store

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// sweepSpecs maps every registered sweep, by ID, to a spec small enough to
// run several times. TestStoreRoundTripsEverySweep fails for a sweep
// registered without one.
var sweepSpecs = map[string]scenario.Spec{
	"table2":   {},
	"fig8":     {Params: map[string]string{"sizes": "tiny:8,256k"}},
	"fig10":    {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}},
	"ablation": {Params: map[string]string{"kind": "ones", "w": "2", "iters": "1", "slots": "2,30", "bws": "64"}},
	"attack":   {Quick: true, Params: map[string]string{"trials": "6"}},
	"keyextract": {Quick: true, Params: map[string]string{
		"trials": "4", "attackers": "bp", "victims": "keyloop,ctcompare", "widths": "2", "gaps": "0", "archs": "baseline,sempe"}},
	"keynoise": {Params: map[string]string{
		"trials": "4", "attackers": "cache", "victims": "keyloop", "widths": "2", "gaps": "0,64", "archs": "baseline"}},
	"leakmatrix": {Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2", "secrets": "2"}},
}

func lookup(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

func stableJSON(t *testing.T, res *scenario.Result) string {
	t.Helper()
	out, err := json.MarshalIndent(res.Stable(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// runStored runs sc through the engine with s as its row source.
func runStored(s *Store, sc *scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (*scenario.Result, error) {
	opts.Compute = s.Rows
	return scenario.Run(sc, spec, opts)
}

// TestStoreRoundTripsEverySweep: every registered sweep's typed rows
// survive the store's JSON codec. For each sweep, a cold store-backed run
// and a warm one on a fresh handle both render the serial run's stable
// JSON and return its rows; the cold run stores every point, and the warm
// one serves every point from disk (table2's nil row included) and
// simulates none.
func TestStoreRoundTripsEverySweep(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range scenario.Scenarios() {
		id := sc.Sweep.ID
		if seen[id] {
			continue
		}
		seen[id] = true
		spec, ok := sweepSpecs[id]
		if !ok {
			t.Errorf("sweep %q (scenario %s) has no spec; add one to sweepSpecs", id, sc.Name)
			continue
		}
		t.Run(id, func(t *testing.T) {
			spec.Workers = 1
			serial, err := scenario.Run(sc, spec, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := stableJSON(t, serial)
			spec.Workers = 2
			dir := t.TempDir()
			for _, warm := range []bool{false, true} {
				s := open(t, dir, "v1")
				j := obs.NewJournal()
				res, err := runStored(s, sc, spec, scenario.RunOptions{Journal: j})
				if err != nil {
					t.Fatalf("warm=%t: %v", warm, err)
				}
				if got := stableJSON(t, res); got != want {
					t.Errorf("warm=%t: stable JSON differs from the serial run's:\n%s\nvs\n%s", warm, got, want)
				}
				if !reflect.DeepEqual(res.Rows, serial.Rows) {
					t.Errorf("warm=%t: rows %+v, serial %+v", warm, res.Rows, serial.Rows)
				}
				n := int64(res.Points)
				wantCounters := Counters{Misses: n, Puts: n}
				if warm {
					wantCounters = Counters{Hits: n}
				}
				if c := s.Counters(); c != wantCounters {
					t.Errorf("warm=%t: counters %+v, want %+v", warm, c, wantCounters)
				}
				points := 0
				for _, e := range j.Events() {
					if e.Name == "point" && e.Phase == "begin" {
						points++
					}
				}
				if warm && points != 0 {
					t.Errorf("warm run simulated %d points, want none", points)
				}
			}
		})
	}
}

// TestCorruptStoreEntryRecomputed: a damaged entry in a warm store is
// detected, its point recomputed and stored again, and the result stays
// what the cold run rendered.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := sweepSpecs["fig10"]
	dir := t.TempDir()
	first, err := runStored(open(t, dir, "v1"), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, "v1")
	second, err := runStored(s, sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c, n := s.Counters(), int64(first.Points); c != (Counters{Hits: n - 1, Misses: 1, Puts: 1, Corrupt: 1}) {
		t.Errorf("counters %+v, want %d hits and one corrupt entry recomputed", c, n-1)
	}
	if got, want := stableJSON(t, second), stableJSON(t, first); got != want {
		t.Error("result after corruption recovery differs")
	}
}

// TestFailureKeepsCompletedRows: a sweep that fails at one point still
// stores every row that completed before it, so the rerun computes only
// the points that were missing.
func TestFailureKeepsCompletedRows(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	sc := &scenario.Scenario{
		Name: "flaky",
		Sweep: &scenario.Sweep{
			ID: "flaky",
			Plan: func(scenario.Spec) (*scenario.Plan, error) {
				return &scenario.Plan{
					Axes: []scenario.Axis{{Name: "i", Values: []string{"0", "1", "2", "3"}}},
					Point: func(p scenario.Point) (any, error) {
						calls.Add(1)
						if p.Index == 2 && failing.Load() {
							return nil, errors.New("boom")
						}
						return 10 * p.Index, nil
					},
				}, nil
			},
			DecodeRow: func(raw json.RawMessage) (any, error) {
				var v int
				err := json.Unmarshal(raw, &v)
				return v, err
			},
		},
		Render: func(scenario.Spec, []any) []*stats.Table { return nil },
	}
	s := open(t, t.TempDir(), "v1")
	spec := scenario.Spec{Workers: 1}
	if _, err := runStored(s, sc, spec, scenario.RunOptions{}); err == nil || err.Error() != "flaky: point [2]: boom" {
		t.Fatalf("err = %v, want flaky: point [2]: boom", err)
	}
	failing.Store(false)
	calls.Store(0)
	hits := s.Counters().Hits
	res, err := runStored(s, sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stored := s.Counters().Hits - hits; stored != 2 || calls.Load() != 2 {
		t.Errorf("rerun: %d points from the store, %d computed; want 2 and 2", stored, calls.Load())
	}
	if want := []any{0, 10, 20, 30}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

// TestRowsReportProgress: a store-backed run calls Progress as rows land,
// cold and warm: every call carries the grid's total, the count never
// decreases, the last call is (total, total), and a cold run reports
// before its end.
func TestRowsReportProgress(t *testing.T) {
	sc := lookup(t, "fig10a")
	dir := t.TempDir()
	for _, warm := range []bool{false, true} {
		var calls [][2]int
		_, err := runStored(open(t, dir, "v1"), sc, sweepSpecs["fig10"], scenario.RunOptions{
			Progress: func(done, total int) { calls = append(calls, [2]int{done, total}) },
		})
		if err != nil {
			t.Fatalf("warm=%t: %v", warm, err)
		}
		if len(calls) == 0 || calls[len(calls)-1] != [2]int{4, 4} || (!warm && calls[0][0] >= 4) {
			t.Fatalf("warm=%t: progress calls %v, want the last at 4/4 (and, cold, some before it)", warm, calls)
		}
		for i, c := range calls {
			if c[1] != 4 || (i > 0 && c[0] < calls[i-1][0]) {
				t.Errorf("warm=%t: progress calls %v: call %d is not a non-decreasing count of 4", warm, calls, i)
			}
		}
	}
}

// TestConcurrentRunsShareStore: two sweeps fill their grids into one store
// at the same time, and each renders what a serial engine run renders.
func TestConcurrentRunsShareStore(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	scs := []*scenario.Scenario{lookup(t, "fig10a"), lookup(t, "fig8")}
	specs := []scenario.Spec{sweepSpecs["fig10"], sweepSpecs["fig8"]}
	got := make([]*scenario.Result, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runStored(s, scs[i], specs[i], scenario.RunOptions{})
		}()
	}
	wg.Wait()
	for i, sc := range scs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", sc.Name, errs[i])
		}
		serial, err := scenario.Run(sc, specs[i], scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := stableJSON(t, got[i]), stableJSON(t, serial); a != b {
			t.Errorf("%s filled concurrently differs from serial:\n%s\nvs\n%s", sc.Name, a, b)
		}
	}
	if n := len(entryFiles(t, s.Dir())); n != 4+6 {
		t.Errorf("store holds %d entries, want the 10 rows of both grids", n)
	}
}
