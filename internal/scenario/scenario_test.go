package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestExpandRowMajor(t *testing.T) {
	axes := []Axis{
		{Name: "a", Values: []string{"x", "y"}},
		{Name: "b", Values: []string{"1", "2", "3"}},
	}
	pts := Expand(axes)
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i, p := range pts {
		if p.Index != i || !reflect.DeepEqual(p.Coords, want[i]) {
			t.Errorf("point %d = %+v, want coords %v", i, p, want[i])
		}
	}
	if got := pts[4].Labels(axes); !reflect.DeepEqual(got, []string{"y", "2"}) {
		t.Errorf("labels = %v", got)
	}
}

func TestExpandDegenerate(t *testing.T) {
	// No axes: a single point (a scenario without a sweep grid).
	if pts := Expand(nil); len(pts) != 1 || len(pts[0].Coords) != 0 {
		t.Errorf("no axes: %+v", pts)
	}
	// An empty axis: an empty grid.
	if pts := Expand([]Axis{{Name: "a"}}); pts != nil {
		t.Errorf("empty axis: %+v", pts)
	}
}

// TestGridSize: GridSize counts what Expand would expand, and past
// MaxPoints it stops multiplying instead of overflowing. Three 1000-value
// lists once asked Expand for a 128 GB grid.
func TestGridSize(t *testing.T) {
	axis := func(n int) Axis { return Axis{Name: "a", Values: make([]string, n)} }
	for _, axes := range [][]Axis{nil, {axis(0)}, {axis(3)}, {axis(2), axis(3)}, {axis(4), axis(0), axis(5)}} {
		if got, want := GridSize(axes), len(Expand(axes)); got != want {
			t.Errorf("GridSize(%d axes) = %d, want %d as Expand", len(axes), got, want)
		}
	}
	huge := make([]Axis, 64)
	for i := range huge {
		huge[i] = axis(1000)
	}
	if n := GridSize(huge); n <= MaxPoints {
		t.Errorf("64 axes of 1000 values: GridSize = %d, want a size past %d", n, MaxPoints)
	}
	if n := GridSize(append(huge, axis(0))); n != 0 {
		t.Errorf("a huge grid with an empty axis: GridSize = %d, want 0", n)
	}
	if n := GridSize([]Axis{axis(256), axis(256)}); n != MaxPoints {
		t.Errorf("256x256: GridSize = %d, want %d", n, MaxPoints)
	}
}

// TestGridErrorDeterministic: the reported error is the lowest-indexed one
// regardless of worker interleaving.
func TestGridErrorDeterministic(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true}
	for _, workers := range []int{1, 4} {
		err := Grid(10, workers, func(i int) error {
			if failAt[i] {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Errorf("workers=%d: error = %v, want point 3", workers, err)
		}
	}
}

// testSweep squares the grid index; rows land in deterministic order at
// any worker count.
func testSweep(calls *atomic.Int64) *Sweep {
	return &Sweep{
		ID: "square",
		Plan: func(spec Spec) (*Plan, error) {
			n := 4
			if spec.Quick {
				n = 2
			}
			vals := make([]string, n)
			for i := range vals {
				vals[i] = fmt.Sprintf("%d", i)
			}
			return &Plan{
				Axes: []Axis{{Name: "i", Values: vals}},
				Point: func(p Point) (any, error) {
					if calls != nil {
						calls.Add(1)
					}
					return p.Coords[0] * p.Coords[0], nil
				},
			}, nil
		},
		DecodeRow: func(raw json.RawMessage) (any, error) {
			var v int
			err := json.Unmarshal(raw, &v)
			return v, err
		},
	}
}

func testScenario(calls *atomic.Int64) *Scenario {
	return &Scenario{
		Name:        "square",
		Description: "squares the axis",
		Sweep:       testSweep(calls),
		Render: func(spec Spec, rows []any) []*stats.Table {
			tb := &stats.Table{Title: "squares", Header: []string{"i", "i^2"}}
			for i, r := range rows {
				tb.AddRow(fmt.Sprintf("%d", i), stats.Int(uint64(r.(int))))
			}
			return []*stats.Table{tb}
		},
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	sc := testScenario(nil)
	serial, err := Run(sc, Spec{Workers: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(sc, Spec{Workers: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Rows, par.Rows) || !reflect.DeepEqual(serial.Tables, par.Tables) {
		t.Errorf("parallel differs from serial:\n%+v\n%+v", serial.Rows, par.Rows)
	}
	if serial.Points != 4 || len(serial.Axes) != 1 {
		t.Errorf("result shape: %+v", serial)
	}
}

func TestRunProgressAndTiming(t *testing.T) {
	sc := testScenario(nil)
	var last, total int
	res, err := Run(sc, Spec{}, RunOptions{Progress: func(d, n int) { last, total = d, n }})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 || total != 4 {
		t.Errorf("progress ended at %d/%d, want 4/4", last, total)
	}
	if res.Slowest == nil || len(res.Slowest.Labels) != 1 {
		t.Errorf("slowest point missing: %+v", res.Slowest)
	}
}

// TestRowCacheSharesSweep: two scenarios over the same sweep (and repeated
// runs of the same spec) simulate the grid once.
func TestRowCacheSharesSweep(t *testing.T) {
	var calls atomic.Int64
	sc := testScenario(&calls)
	cache := NewRowCache()
	for i := 0; i < 3; i++ {
		res, err := Run(sc, Spec{Workers: 2}, RunOptions{Rows: cache})
		if err != nil {
			t.Fatal(err)
		}
		// The per-point timing from the compute that ran the grid is
		// preserved through the cache.
		if res.Slowest == nil {
			t.Errorf("run %d: Slowest missing with RowCache", i)
		}
	}
	if calls.Load() != 4 {
		t.Errorf("sweep points ran %d times, want 4 (one grid)", calls.Load())
	}
	// A different spec key misses the cache.
	if _, err := Run(sc, Spec{Quick: true}, RunOptions{Rows: cache}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 {
		t.Errorf("quick grid did not run: %d calls", calls.Load())
	}
}

// TestRunComputeBehindRowCache: a Compute row source replaces the point
// loop behind the row cache. Two scenarios sharing a sweep call it once,
// with the plan Run made and the caller's options, and render its rows.
func TestRunComputeBehindRowCache(t *testing.T) {
	ctx := context.WithValue(context.Background(), t, "run")
	var calls int
	opts := RunOptions{Rows: NewRowCache(), Context: ctx}
	opts.Compute = func(sc *Scenario, spec Spec, plan *Plan, o RunOptions) ([]any, error) {
		calls++
		if o.Context != ctx || o.Rows != opts.Rows || len(plan.Axes) != 1 || !spec.Quick {
			t.Errorf("Compute got plan %+v, spec %+v, options %+v; want the run's", plan, spec, o)
		}
		return []any{7, 8}, nil
	}
	for _, name := range []string{"square", "square-again"} {
		sc := testScenario(nil)
		sc.Name = name
		res, err := Run(sc, Spec{Quick: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, []any{7, 8}) || res.Points != 2 || res.Scenario != name {
			t.Errorf("%s: result %+v, want Compute's rows", name, res)
		}
	}
	if calls != 1 {
		t.Errorf("Compute ran %d times for one shared sweep, want 1", calls)
	}
}

// TestRowCacheBounded: a RowCache keeps its rowCacheEntries most recently
// completed specs. Once one spec more has completed, the oldest recomputes
// and the most recent does not; a long-lived server sharing one cache
// across every run used to keep every distinct spec's rows forever.
func TestRowCacheBounded(t *testing.T) {
	var calls atomic.Int64
	sc := testScenario(&calls)
	cache := NewRowCache()
	run := func(i int) int64 {
		t.Helper()
		before := calls.Load()
		if _, err := Run(sc, Spec{Params: map[string]string{"k": fmt.Sprint(i)}}, RunOptions{Rows: cache}); err != nil {
			t.Fatal(err)
		}
		return calls.Load() - before
	}
	for i := 0; i <= rowCacheEntries; i++ {
		if n := run(i); n != 4 {
			t.Fatalf("spec %d: %d points ran, want 4", i, n)
		}
	}
	if n := len(cache.m); n != rowCacheEntries {
		t.Errorf("cache holds %d entries, want %d", n, rowCacheEntries)
	}
	if n := run(rowCacheEntries); n != 0 {
		t.Errorf("most recent spec: %d points recomputed, want 0", n)
	}
	if n := run(0); n != 4 {
		t.Errorf("oldest spec after the cap: %d points ran, want 4 (recomputed)", n)
	}
	if n := len(cache.m); n != rowCacheEntries {
		t.Errorf("cache holds %d entries, want %d", n, rowCacheEntries)
	}
}

// TestJoinedRunSeesProgress: a run that joins another run's in-flight
// computation through the row cache reads that computation's progress: the
// latest (done, total) when it joins, then every update. The sweep holds
// every point after the first until released, so the joiner must see
// (1, 4) while the grid is still running; a joiner used to see nothing
// until the end. Both runs see the calls a lone run makes.
func TestJoinedRunSeesProgress(t *testing.T) {
	release := make(chan struct{})
	sc := testScenario(nil)
	sc.Sweep = &Sweep{
		ID: "gated",
		Plan: func(spec Spec) (*Plan, error) {
			p, err := testSweep(nil).Plan(spec)
			square := p.Point
			p.Point = func(pt Point) (any, error) {
				if pt.Index > 0 {
					<-release
				}
				return square(pt)
			}
			return p, err
		},
	}
	cache := NewRowCache()
	var (
		wg                    sync.WaitGroup
		mu                    sync.Mutex
		firstCalls, joinCalls [][2]int
	)
	run := func(calls *[][2]int, seen chan struct{}) {
		defer wg.Done()
		var once sync.Once
		_, err := Run(sc, Spec{Workers: 1}, RunOptions{Rows: cache, Progress: func(done, total int) {
			mu.Lock()
			*calls = append(*calls, [2]int{done, total})
			mu.Unlock()
			once.Do(func() { close(seen) })
		}})
		if err != nil {
			t.Error(err)
		}
	}
	firstSeen, joinSeen := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go run(&firstCalls, firstSeen)
	<-firstSeen // point 0 is done; points 1..3 wait for release
	wg.Add(1)
	go run(&joinCalls, joinSeen)
	select {
	case <-joinSeen:
	case <-time.After(10 * time.Second):
		t.Error("the joined run saw no progress while the shared computation ran")
	}
	close(release)
	wg.Wait()
	want := [][2]int{{1, 4}, {2, 4}, {3, 4}, {4, 4}, {4, 4}}
	if !reflect.DeepEqual(firstCalls, want) {
		t.Errorf("first run's progress calls %v, want %v", firstCalls, want)
	}
	if !reflect.DeepEqual(joinCalls, want) {
		t.Errorf("joined run's progress calls %v, want %v", joinCalls, want)
	}
}

func TestRunWrapsPointErrors(t *testing.T) {
	boom := errors.New("boom")
	sc := testScenario(nil)
	sc.Sweep = &Sweep{
		ID: "fail",
		Plan: func(spec Spec) (*Plan, error) {
			p, err := testSweep(nil).Plan(spec)
			p.Point = func(Point) (any, error) { return nil, boom }
			return p, err
		},
	}
	_, err := Run(sc, Spec{}, RunOptions{})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "square") {
		t.Errorf("err = %v, want wrapped boom naming the scenario", err)
	}
}

// TestRunRecoversPointPanic: a panic inside one grid point becomes that
// point's error, naming the scenario and the point, at any worker count;
// the points that did not panic still run, and the process lives on.
func TestRunRecoversPointPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		sc := testScenario(nil)
		sc.Sweep = &Sweep{
			ID: "panic",
			Plan: func(spec Spec) (*Plan, error) {
				p, err := testSweep(nil).Plan(spec)
				p.Point = func(pt Point) (any, error) {
					calls.Add(1)
					if pt.Coords[0] == 2 {
						var s []int
						_ = s[:pt.Coords[0]-3] // slice bounds out of range [:-1]
					}
					return pt.Coords[0], nil
				}
				return p, err
			},
		}
		_, err := Run(sc, Spec{Workers: workers}, RunOptions{})
		want := "square: point [2]: panic: runtime error: slice bounds out of range [:-1]"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if workers > 1 && calls.Load() != 4 {
			t.Errorf("workers=%d: %d points ran, want all 4 (a panic fails only its own point)", workers, calls.Load())
		}
		// The engine still runs sweeps after recovering.
		if _, err := Run(testScenario(nil), Spec{Workers: workers}, RunOptions{}); err != nil {
			t.Errorf("workers=%d: run after a recovered panic: %v", workers, err)
		}
	}
}

// TestRunPointsSubsetKeepsCompletedRows: the point loop runs exactly the
// requested indices, returns their rows in request order, and on failure
// still hands back every row that completed.
func TestRunPointsSubsetKeepsCompletedRows(t *testing.T) {
	p, err := testSweep(nil).Plan(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rows, slowest, err := p.RunPoints([]int{3, 1}, 2, RunOptions{})
	if err != nil || !reflect.DeepEqual(rows, []any{9, 1}) || slowest == nil {
		t.Fatalf("rows = %v, slowest = %v, err = %v; want [9 1]", rows, slowest, err)
	}
	square := p.Point
	p.Point = func(pt Point) (any, error) {
		if pt.Coords[0] == 1 {
			return nil, errors.New("boom")
		}
		return square(pt)
	}
	rows, _, err = p.RunPoints([]int{0, 1, 2, 3}, 1, RunOptions{})
	if err == nil || err.Error() != "point [1]: boom" {
		t.Errorf("err = %v, want point [1]: boom", err)
	}
	if !reflect.DeepEqual(rows, []any{0, nil, nil, nil}) {
		t.Errorf("rows after a serial failure = %v, want [0 <nil> <nil> <nil>]", rows)
	}
}

func TestSpecKey(t *testing.T) {
	a := Spec{Workers: 1, Params: map[string]string{"b": "2", "a": "1"}}
	b := Spec{Workers: 8, Params: map[string]string{"a": "1", "b": "2"}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ across worker counts / map order: %q vs %q", a.Key(), b.Key())
	}
	c := Spec{Quick: true, Params: map[string]string{"a": "1", "b": "2"}}
	if a.Key() == c.Key() {
		t.Errorf("quick not part of the key: %q", c.Key())
	}
}

func TestRegistry(t *testing.T) {
	sc := testScenario(nil)
	sc.Name = "registry-test-scenario"
	Register(sc)
	got, ok := Lookup(sc.Name)
	if !ok || got != sc {
		t.Fatalf("Lookup(%q) = %v, %t", sc.Name, got, ok)
	}
	found := false
	for _, n := range Names() {
		if n == sc.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() missing %q: %v", sc.Name, Names())
	}
	// A sweep without a row codec could not be filled by a store;
	// registering one is a programmer error.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register of a sweep without DecodeRow did not panic")
			}
		}()
		codecless := testScenario(nil)
		codecless.Name = "registry-test-codecless"
		codecless.Sweep.DecodeRow = nil
		Register(codecless)
	}()
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(sc)
}
