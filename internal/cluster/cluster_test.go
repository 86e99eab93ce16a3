// External test package: the tests boot real workers through internal/serve
// (which imports cluster for the shard protocol), so an internal test
// package would cycle.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// startWorker boots one in-process worker (sempe-serve -worker).
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Options{MaxWorkers: 2, MaxConcurrentRuns: 2, Worker: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func lookup(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

// smallSpec is a fast fig10 grid: 2 kernels x 2 depths = 4 points.
func smallSpec() scenario.Spec {
	return scenario.Spec{Params: map[string]string{"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}}
}

// run runs sc through the engine with co as its row source, returning the
// coordinator's report with the result.
func run(co *cluster.Coordinator, sc *scenario.Scenario, spec scenario.Spec) (*scenario.Result, *cluster.Report, error) {
	var rep *cluster.Report
	res, err := scenario.Run(sc, spec, scenario.RunOptions{
		Compute: func(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, opts scenario.RunOptions) ([]any, error) {
			rows, r, err := co.Rows(sc, spec, plan, opts)
			rep = r
			return rows, err
		},
	})
	return res, rep, err
}

func stableJSON(t *testing.T, res *scenario.Result) string {
	t.Helper()
	out, err := json.MarshalIndent(res.Stable(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDistributedMatchesSerial is the tentpole acceptance check: a sweep
// sharded across two workers (shard size 1, so every point crosses the
// wire) renders byte-identical stable JSON to a serial engine run.
func TestDistributedMatchesSerial(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := smallSpec()

	serialSpec := spec
	serialSpec.Workers = 1
	serial, err := scenario.Run(sc, serialSpec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co := cluster.New(cluster.Options{
		Workers:   []string{startWorker(t).URL, startWorker(t).URL},
		ShardSize: 1,
	})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 4 || rep.Shards != 4 || rep.StorePoints != 0 {
		t.Errorf("report = %+v, want 4 points in 4 shards, none from store", rep)
	}
	got, want := stableJSON(t, dist), stableJSON(t, serial)
	if got != want {
		t.Errorf("distributed stable JSON differs from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
	// The typed rows came through the JSON codec bit-identically too.
	for i := range serial.Rows {
		if serial.Rows[i] != dist.Rows[i] {
			t.Errorf("row %d: serial %+v != distributed %+v", i, serial.Rows[i], dist.Rows[i])
		}
	}
}

// TestWorkerDiesMidSweep: one worker starts failing after its first shard
// (and one is dead from the start); the coordinator re-dispatches to the
// survivor and still merges a correct, complete result.
func TestWorkerDiesMidSweep(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := smallSpec()

	healthy := startWorker(t)

	// dying serves exactly one shard, then every request fails — the
	// observable behavior of a worker process killed mid-sweep.
	inner := serve.New(serve.Options{MaxWorkers: 2, Worker: true}).Handler()
	var served atomic.Int32
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first dial

	co := cluster.New(cluster.Options{
		Workers:     []string{dying.URL, dead.URL, healthy.URL},
		ShardSize:   1,
		MaxAttempts: 5,
	})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatalf("sweep failed despite a surviving worker: %v (report %+v)", err, rep)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded; the dying workers were never exercised")
	}
	if len(rep.DroppedWorkers) == 0 {
		t.Error("no workers dropped")
	}

	serial, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSON(t, dist), stableJSON(t, serial); got != want {
		t.Error("result after worker failure differs from serial run")
	}
}

// TestAllWorkersDead: with no survivors the sweep fails with a clear
// error instead of hanging.
func TestAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	co := cluster.New(cluster.Options{Workers: []string{dead.URL}, MaxAttempts: 10})
	_, _, err := run(co, lookup(t, "fig10a"), smallSpec())
	if err == nil {
		t.Fatal("sweep against a dead fleet succeeded")
	}
}

// TestCoordinatorSharedAcrossRuns: one coordinator fills several grids at
// once, as it does for a serve front end's concurrent runs. fig10a and fig8
// shard across the same two workers into one store at the same time, and
// each renders what a serial engine run renders.
func TestCoordinatorSharedAcrossRuns(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.New(cluster.Options{
		Workers:   []string{startWorker(t).URL, startWorker(t).URL},
		ShardSize: 1,
		Store:     st,
	})
	scs := []*scenario.Scenario{lookup(t, "fig10a"), lookup(t, "fig8")}
	specs := []scenario.Spec{smallSpec(), {Params: map[string]string{"sizes": "tiny:8"}}}
	dist := make([]*scenario.Result, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist[i], _, errs[i] = run(co, scs[i], specs[i])
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
		if got, want := stableJSON(t, dist[i]), stableJSON(t, serial); got != want {
			t.Errorf("%s filled concurrently differs from serial:\n%s\nvs\n%s", sc.Name, got, want)
		}
	}
}

// TestWarmStoreSkipsSimulation: a second sweep over a warm store serves
// every point from disk — nothing is dispatched, nothing simulates.
func TestWarmStoreSkipsSimulation(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := smallSpec()
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := cluster.New(cluster.Options{Workers: []string{startWorker(t).URL}, ShardSize: 2, Store: st1})
	first, rep1, err := run(cold, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.StorePoints != 0 || rep1.Dispatched == 0 {
		t.Fatalf("cold report = %+v", rep1)
	}

	// Fresh store handle, no workers at all: the warm run must not need
	// any compute — and a re-chunked sweep (different shard size) still
	// hits, because rows are stored per point.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := cluster.New(cluster.Options{Store: st2, ShardSize: 3})
	second, rep2, err := run(warm, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.StorePoints != rep2.Points || rep2.Dispatched != 0 || rep2.Shards != 0 {
		t.Errorf("warm report = %+v, want all %d points from store", rep2, rep2.Points)
	}
	if got, want := stableJSON(t, second), stableJSON(t, first); got != want {
		t.Error("warm result differs from cold result")
	}
}

// TestCorruptStoreEntryRecomputed: a damaged entry is detected, the point
// recomputed, and the merged result stays correct.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := smallSpec()
	dir := t.TempDir()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.New(cluster.Options{Store: st})
	first, _, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate one entry file.
	var corrupted bool
	err = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || corrupted {
			return err
		}
		corrupted = true
		return os.Truncate(p, info.Size()/2)
	})
	if err != nil || !corrupted {
		t.Fatalf("corrupting store: %v (corrupted=%t)", err, corrupted)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co2 := cluster.New(cluster.Options{Store: st2})
	second, rep, err := run(co2, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StorePoints != rep.Points-1 {
		t.Errorf("report = %+v, want exactly one recomputed point", rep)
	}
	if c := st2.Counters(); c.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", c.Corrupt)
	}
	if got, want := stableJSON(t, second), stableJSON(t, first); got != want {
		t.Error("result after corruption recovery differs")
	}
}

// TestNotShardable: no sweep is local-only. table2, whose one row is nil,
// runs through a coordinator-backed scenario.Run against a worker and
// renders what the local engine renders; a warm store then serves its
// point without dispatching.
func TestNotShardable(t *testing.T) {
	sc := lookup(t, "table2")
	local, err := scenario.Run(sc, scenario.Spec{}, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers []string
		stored  int
	}{
		{"cold", []string{startWorker(t).URL}, 0},
		{"warm", nil, 1},
	} {
		co := cluster.New(cluster.Options{Workers: tc.workers, Store: st})
		res, rep, err := run(co, sc, scenario.Spec{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Points != 1 || rep.StorePoints != tc.stored || rep.Dispatched != 1-tc.stored {
			t.Errorf("%s: report = %+v, want 1 point, %d from the store", tc.name, rep, tc.stored)
		}
		if got, want := stableJSON(t, res), stableJSON(t, local); got != want {
			t.Errorf("%s: table2 through the coordinator differs from the local run:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
}

// TestCoordinatorReportsProgress: a coordinated run calls Progress as rows
// land, in-process and merged from two workers: every call carries the
// grid's total, the count never decreases, some call comes before the end,
// and the last call is (total, total).
func TestCoordinatorReportsProgress(t *testing.T) {
	sc := lookup(t, "fig10a")
	for _, workers := range [][]string{nil, {startWorker(t).URL, startWorker(t).URL}} {
		var calls [][2]int
		co := cluster.New(cluster.Options{Workers: workers, ShardSize: 1})
		_, err := scenario.Run(sc, smallSpec(), scenario.RunOptions{
			Progress: func(done, total int) { calls = append(calls, [2]int{done, total}) },
			Compute: func(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, opts scenario.RunOptions) ([]any, error) {
				rows, _, err := co.Rows(sc, spec, plan, opts)
				return rows, err
			},
		})
		if err != nil {
			t.Fatalf("%d workers: %v", len(workers), err)
		}
		if len(calls) < 2 || calls[len(calls)-1] != [2]int{4, 4} || calls[0][0] >= 4 {
			t.Fatalf("%d workers: progress calls %v, want some before the end and the last at 4/4", len(workers), calls)
		}
		for i, c := range calls {
			if c[1] != 4 || (i > 0 && c[0] < calls[i-1][0]) {
				t.Errorf("%d workers: progress calls %v: call %d is not a non-decreasing count of 4", len(workers), calls, i)
			}
		}
	}
}

// TestLocalFailureKeepsCompletedRows: an in-process sweep that fails at
// one point still persists every row that completed before it, so the
// rerun computes only the points that were missing.
func TestLocalFailureKeepsCompletedRows(t *testing.T) {
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
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.New(cluster.Options{Store: st})
	spec := scenario.Spec{Workers: 1}
	if _, _, err := run(co, sc, spec); err == nil || err.Error() != "flaky: point [2]: boom" {
		t.Fatalf("err = %v, want flaky: point [2]: boom", err)
	}
	failing.Store(false)
	calls.Store(0)
	res, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StorePoints != 2 || calls.Load() != 2 {
		t.Errorf("rerun: %d points from the store, %d computed; want 2 and 2", rep.StorePoints, calls.Load())
	}
	if want := []any{0, 10, 20, 30}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

// TestFig8ThroughCluster: the djpeg grid — shardable now that Fig8Row
// carries plain statistics instead of live cores — sharded across two
// workers (shard size 1, every point crosses the wire) renders
// byte-identical stable JSON to the serial engine run, and the typed rows
// survive the codec exactly.
func TestFig8ThroughCluster(t *testing.T) {
	sc := lookup(t, "fig8")
	spec := scenario.Spec{Params: map[string]string{"sizes": "tiny:8,256k"}}

	serialSpec := spec
	serialSpec.Workers = 1
	serial, err := scenario.Run(sc, serialSpec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co := cluster.New(cluster.Options{
		Workers:   []string{startWorker(t).URL, startWorker(t).URL},
		ShardSize: 1,
	})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 6 || rep.Shards != 6 {
		t.Errorf("report = %+v, want 6 points (3 formats x 2 sizes) in 6 shards", rep)
	}
	got, want := stableJSON(t, dist), stableJSON(t, serial)
	if got != want {
		t.Errorf("distributed fig8 stable JSON differs from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
	for i := range serial.Rows {
		if serial.Rows[i] != dist.Rows[i] {
			t.Errorf("row %d: serial %+v != distributed %+v", i, serial.Rows[i], dist.Rows[i])
		}
	}
}

// TestVersionMismatch: a worker built at a different code version rejects
// shards with 409, and the coordinator fails fast instead of retrying
// forever.
func TestVersionMismatch(t *testing.T) {
	// The coordinator against a worker that rejects every shard as a
	// version mismatch.
	foreign := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.ShardPath {
			http.Error(w, `{"error":"code version mismatch"}`, http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusOK) // /healthz
	}))
	t.Cleanup(foreign.Close)
	co := cluster.New(cluster.Options{Workers: []string{foreign.URL}, MaxAttempts: 100})
	_, rep, err := run(co, lookup(t, "fig10a"), smallSpec())
	if err == nil {
		t.Fatal("mixed-version fleet merged rows")
	}
	if rep.Dispatched > 1 {
		t.Errorf("version mismatch dispatched %d times; want fail-fast after 1", rep.Dispatched)
	}

	// A real worker answers a shard from another code version with 409.
	body, err := json.Marshal(cluster.ShardRequest{
		Scenario: "fig10a", Spec: smallSpec(), Indices: []int{0}, Total: 4, Version: "some-other-sim"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(startWorker(t).URL+cluster.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("foreign-version shard = %d, want 409", resp.StatusCode)
	}
}

// TestAblationThroughCluster: the new ablation scenario is shardable end
// to end — the satellite requirement that it runs through the cluster.
func TestAblationThroughCluster(t *testing.T) {
	sc := lookup(t, "ablation")
	spec := scenario.Spec{Params: map[string]string{
		"kind": "ones", "w": "2", "iters": "1", "slots": "2,30", "bws": "64"}}
	co := cluster.New(cluster.Options{Workers: []string{startWorker(t).URL}, ShardSize: 1})
	dist, _, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSON(t, dist), stableJSON(t, serial); got != want {
		t.Errorf("distributed ablation differs from serial:\n%s\nvs\n%s", got, want)
	}
}

// TestSpectreThroughCluster is the attack lab's distribution acceptance
// check: the spectre sweep sharded across two local workers renders
// byte-identical stable JSON to the serial engine run, and its typed
// assessment rows survive the wire codec exactly.
func TestSpectreThroughCluster(t *testing.T) {
	sc := lookup(t, "spectre")
	spec := scenario.Spec{Quick: true, Params: map[string]string{"trials": "12"}}

	serialSpec := spec
	serialSpec.Workers = 1
	serial, err := scenario.Run(sc, serialSpec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co := cluster.New(cluster.Options{
		Workers:   []string{startWorker(t).URL, startWorker(t).URL},
		ShardSize: 1,
	})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 4 || rep.Shards != 4 {
		t.Errorf("report = %+v, want 4 points in 4 shards", rep)
	}
	got, want := stableJSON(t, dist), stableJSON(t, serial)
	if got != want {
		t.Errorf("distributed spectre stable JSON differs from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
	for i := range serial.Rows {
		if !reflect.DeepEqual(serial.Rows[i], dist.Rows[i]) {
			t.Errorf("row %d: serial %+v != distributed %+v", i, serial.Rows[i], dist.Rows[i])
		}
	}
}

// TestKeyExtractThroughCluster: the multi-bit key-extraction sweep
// sharded across two local workers (shard size 1, every point crosses the
// wire) renders byte-identical stable JSON to the serial engine run, and
// its KeyRecovery rows survive the wire codec exactly.
func TestKeyExtractThroughCluster(t *testing.T) {
	sc := lookup(t, "keyextract")
	spec := scenario.Spec{Params: map[string]string{
		"trials": "6", "attackers": "bp", "victims": "keyloop,ctcompare",
		"widths": "2", "gaps": "0", "archs": "baseline,sempe"}}

	serialSpec := spec
	serialSpec.Workers = 1
	serial, err := scenario.Run(sc, serialSpec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co := cluster.New(cluster.Options{
		Workers:   []string{startWorker(t).URL, startWorker(t).URL},
		ShardSize: 1,
	})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 4 || rep.Shards != 4 || len(rep.Unreachable) != 0 {
		t.Errorf("report = %+v, want 4 points in 4 shards with a fully reachable fleet", rep)
	}
	got, want := stableJSON(t, dist), stableJSON(t, serial)
	if got != want {
		t.Errorf("distributed keyextract stable JSON differs from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
	for i := range serial.Rows {
		if !reflect.DeepEqual(serial.Rows[i], dist.Rows[i]) {
			t.Errorf("row %d: serial %+v != distributed %+v", i, serial.Rows[i], dist.Rows[i])
		}
	}
}

// TestUnreachableWorkerDroppedAtStartup: a fleet with one dead address
// completes without a single mid-sweep retry — the health probe drops the
// dead worker before the first dispatch and reports it.
func TestUnreachableWorkerDroppedAtStartup(t *testing.T) {
	sc := lookup(t, "fig10a")
	spec := smallSpec()

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	live := startWorker(t)

	co := cluster.New(cluster.Options{Workers: []string{dead.URL, live.URL}, ShardSize: 1})
	dist, rep, err := run(co, sc, spec)
	if err != nil {
		t.Fatalf("sweep failed despite a live worker: %v (report %+v)", err, rep)
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != dead.URL {
		t.Errorf("unreachable = %v, want [%s]", rep.Unreachable, dead.URL)
	}
	if rep.Retries != 0 {
		t.Errorf("retries = %d, want 0 (the dead worker must never be dispatched to)", rep.Retries)
	}
	if len(rep.DroppedWorkers) != 0 {
		t.Errorf("dropped mid-sweep = %v, want none", rep.DroppedWorkers)
	}
	serial, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stableJSON(t, dist), stableJSON(t, serial); got != want {
		t.Error("result with a startup-dropped worker differs from serial run")
	}
}

// TestAllWorkersUnreachableNamedError: a fully dead fleet fails fast with
// the named startup error, before any shard is built.
func TestAllWorkersUnreachableNamedError(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2.Close()
	co := cluster.New(cluster.Options{Workers: []string{dead1.URL, dead2.URL}})
	_, rep, err := run(co, lookup(t, "fig10a"), smallSpec())
	if !errors.Is(err, cluster.ErrNoReachableWorkers) {
		t.Fatalf("err = %v, want ErrNoReachableWorkers", err)
	}
	if len(rep.Unreachable) != 2 {
		t.Errorf("unreachable = %v, want both workers", rep.Unreachable)
	}
	if rep.Dispatched != 0 {
		t.Errorf("dispatched = %d, want 0", rep.Dispatched)
	}
}

func TestParseWorkers(t *testing.T) {
	good := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1, http://b:2", []string{"http://a:1", "http://b:2"}},
	}
	for _, c := range good {
		got, err := cluster.ParseWorkers(c.in)
		if err != nil {
			t.Errorf("ParseWorkers(%q): unexpected error %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseWorkers(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	bad := []string{
		"http://a:1,,http://b:2",
		"http://a:1,",
		",http://a:1",
		"http://a:1,http://a:1",
		"http://a:1,http://a:1/",
		"http://a:1, http://a:1 ",
	}
	for _, in := range bad {
		if _, err := cluster.ParseWorkers(in); err == nil {
			t.Errorf("ParseWorkers(%q): no error", in)
		}
	}
}
