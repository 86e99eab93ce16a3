package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/store"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{MaxWorkers: 2, MaxConcurrentRuns: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (runView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view runView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	io.Copy(io.Discard, resp.Body) // see getJSON
	return view, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	// Read to EOF: the server ends a chunked response, and its route
	// middleware counts the request, only after the handler returns, so a
	// client that stops at the end of the JSON value could otherwise scrape
	// the metrics before its own request is counted.
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestScenariosEndpoint: the registry is visible over HTTP, axes included.
func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var infos []scenarioInfo
	if code := getJSON(t, ts.URL+"/scenarios", &infos); code != http.StatusOK {
		t.Fatalf("GET /scenarios = %d", code)
	}
	byName := map[string]scenarioInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, want := range []string{"fig8", "fig9", "fig10a", "fig10b", "table1", "table2", "leakmatrix"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("scenario %q missing from listing", want)
		}
	}
	if axes := byName["fig10a"].Axes; len(axes) != 2 || axes[0].Name != "workload" {
		t.Errorf("fig10a axes = %+v", axes)
	}
}

// TestFig10QuickSweepOverHTTPWithCache is the acceptance path: the Fig. 10
// quick sweep comes back as structured JSON over HTTP, and a second
// identical request is served from the LRU cache without re-simulating.
func TestFig10QuickSweepOverHTTPWithCache(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"scenario": "fig10a", "spec": {"quick": true}, "wait": true}`

	first, code := postRun(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("POST /runs = %d", code)
	}
	if first.Status != "done" || first.Cached {
		t.Fatalf("first run: status=%s cached=%t", first.Status, first.Cached)
	}
	if first.Result == nil || len(first.Result.Tables) != 1 {
		t.Fatal("first run carries no result tables")
	}
	tb := first.Result.Tables[0]
	// The quick sweep: 4 kernels x W in {1,4,10}, typed ratio cells.
	if len(tb.Rows) != 12 {
		t.Errorf("quick sweep has %d rows, want 12", len(tb.Rows))
	}
	if c := tb.Rows[0][2]; c.Kind != stats.KindRatio || c.Num <= 1.0 {
		t.Errorf("SeMPE slowdown cell = %+v, want a ratio > 1", c)
	}
	if first.Progress.Done != 12 || first.Progress.Total != 12 {
		t.Errorf("progress = %+v, want 12/12", first.Progress)
	}

	second, code := postRun(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second POST /runs = %d", code)
	}
	if second.Status != "done" || !second.Cached {
		t.Fatalf("second run: status=%s cached=%t, want done from cache", second.Status, second.Cached)
	}
	if !reflect.DeepEqual(first.Result.Tables, second.Result.Tables) {
		t.Error("cached result differs from the computed one")
	}
	if computes := srv.metrics.computes.Value(); computes != 1 {
		t.Errorf("engine ran %d times, want 1 (second request must hit the cache)", computes)
	}

	// A different spec misses the cache (workers alone must NOT).
	third, _ := postRun(t, ts, `{"scenario": "fig10a", "spec": {"quick": true, "workers": 1}, "wait": true}`)
	if !third.Cached {
		t.Error("worker count changed the cache key; results are worker-independent")
	}
	fourth, _ := postRun(t, ts, `{"scenario": "fig10a", "spec": {"quick": true, "params": {"kinds": "fibonacci"}}, "wait": true}`)
	if fourth.Cached {
		t.Error("different params served from cache")
	}
}

// TestAsyncRunWithProgress: without "wait" the POST returns 202 and the
// run is polled to completion via GET /runs/{id}.
func TestAsyncRunWithProgress(t *testing.T) {
	_, ts := newTestServer(t)
	view, code := postRun(t, ts,
		`{"scenario": "fig10b", "spec": {"params": {"kinds": "fibonacci", "ws": "1", "iters": "1"}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /runs = %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var got runView
	for {
		if getJSON(t, ts.URL+"/runs/"+view.ID, &got) != http.StatusOK {
			t.Fatalf("GET /runs/%s failed", view.ID)
		}
		if got.Status == "done" || got.Status == "error" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q", view.ID, got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("run ended %q (error %q)", got.Status, got.Error)
	}
	if got.Progress.Done != got.Progress.Total || got.Progress.Total != 1 {
		t.Errorf("progress = %+v", got.Progress)
	}

	var listing []runView
	if getJSON(t, ts.URL+"/runs", &listing) != http.StatusOK || len(listing) == 0 {
		t.Fatal("GET /runs empty")
	}
	if listing[0].Result != nil {
		t.Error("list view should omit results")
	}
}

// TestRequestValidation: unknown scenarios, bad specs, and unknown run ids
// are client errors, not runs.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	if _, code := postRun(t, ts, `{"scenario": "nope"}`); code != http.StatusNotFound {
		t.Errorf("unknown scenario = %d, want 404", code)
	}
	if _, code := postRun(t, ts, `{"scenario": "fig10a", "spec": {"params": {"ws": "ten"}}}`); code != http.StatusBadRequest {
		t.Errorf("bad param = %d, want 400", code)
	}
	if _, code := postRun(t, ts, `not json`); code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/runs/run-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown run = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}

// TestRunPruningAndOrdering: GET /runs reports newest first, and run
// records beyond maxTrackedRuns are pruned oldest-finished-first so a
// long-lived server stays bounded. Every run after the first is a cache
// hit, so the maxTrackedRuns+1 posts simulate once.
func TestRunPruningAndOrdering(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < maxTrackedRuns+1; i++ {
		if _, code := postRun(t, ts, `{"scenario": "table2", "spec": {}, "wait": true}`); code != http.StatusOK {
			t.Fatalf("POST %d = %d", i, code)
		}
	}
	var listing []runView
	if getJSON(t, ts.URL+"/runs", &listing) != http.StatusOK {
		t.Fatal("GET /runs failed")
	}
	if len(listing) != maxTrackedRuns {
		t.Fatalf("listing has %d runs, want %d", len(listing), maxTrackedRuns)
	}
	for i, v := range listing {
		if want := fmt.Sprintf("run-%d", maxTrackedRuns+1-i); v.ID != want {
			t.Fatalf("listing[%d] = %s, want %s (newest first)", i, v.ID, want)
		}
	}
	if code := getJSON(t, ts.URL+"/runs/run-1", nil); code != http.StatusNotFound {
		t.Errorf("pruned run = %d, want 404", code)
	}
}

// TestListRunsStatusAndAge: GET /runs reports every run with its status
// and age, so operators never have to guess run IDs. Ages grow
// monotonically with run age (newest first in the listing, so ages ascend
// down the list) and the list view stays small (no result payloads).
func TestListRunsStatusAndAge(t *testing.T) {
	_, ts := newTestServer(t)
	if _, code := postRun(t, ts, `{"scenario": "table2", "spec": {}, "wait": true}`); code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}
	time.Sleep(20 * time.Millisecond) // separate the creation times measurably
	if _, code := postRun(t, ts, `{"scenario": "table2", "spec": {}, "wait": true}`); code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}
	var listing []runView
	if getJSON(t, ts.URL+"/runs", &listing) != http.StatusOK {
		t.Fatal("GET /runs failed")
	}
	if len(listing) != 2 {
		t.Fatalf("listing has %d runs, want 2", len(listing))
	}
	for _, v := range listing {
		if v.Status != "done" {
			t.Errorf("%s: status %q, want done", v.ID, v.Status)
		}
		if v.AgeSeconds <= 0 {
			t.Errorf("%s: age %v, want > 0", v.ID, v.AgeSeconds)
		}
		if v.Result != nil {
			t.Errorf("%s: list view carries a result payload", v.ID)
		}
	}
	// Newest first: run-2 leads and is younger than run-1.
	if listing[0].ID != "run-2" || listing[1].ID != "run-1" {
		t.Fatalf("order = [%s %s], want [run-2 run-1]", listing[0].ID, listing[1].ID)
	}
	if listing[0].AgeSeconds >= listing[1].AgeSeconds {
		t.Errorf("ages not ascending down the list: %v then %v", listing[0].AgeSeconds, listing[1].AgeSeconds)
	}
	// The single-run view carries the age too.
	var one runView
	if getJSON(t, ts.URL+"/runs/run-1", &one) != http.StatusOK {
		t.Fatal("GET /runs/run-1 failed")
	}
	if one.AgeSeconds < listing[1].AgeSeconds {
		t.Errorf("run-1 age shrank between requests: %v then %v", listing[1].AgeSeconds, one.AgeSeconds)
	}
}

// TestLRUEviction: the result cache holds its capacity in completed runs
// (lruEntries on a server) and evicts the least recently used.
func TestLRUEviction(t *testing.T) {
	lru := newLRU(2)
	mk := func(name string) *scenario.Result { return &scenario.Result{Scenario: name} }
	lru.put("a", mk("a"))
	lru.put("b", mk("b"))
	if _, ok := lru.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	lru.put("c", mk("c"))
	if _, ok := lru.get("b"); ok {
		t.Error("b survived eviction; want LRU out")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := lru.get(k); !ok {
			t.Errorf("%s evicted wrongly", k)
		}
	}
}

// TestServeSmallSweepMatchesDirectRun: the HTTP path returns exactly what
// the engine computes locally.
func TestServeSmallSweepMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t)
	spec := scenario.Spec{Params: map[string]string{"kinds": "ones", "ws": "2", "iters": "1"}}
	sc, _ := scenario.Lookup("fig10a")
	direct, err := scenario.Run(sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"scenario": "fig10a", "spec": spec, "wait": true})
	view, code := postRun(t, ts, string(body))
	if code != http.StatusOK || view.Result == nil {
		t.Fatalf("POST = %d, result %v", code, view.Result)
	}
	if !reflect.DeepEqual(direct.Tables, view.Result.Tables) {
		t.Errorf("HTTP result differs from direct engine run:\ndirect: %+v\nhttp:   %+v",
			direct.Tables, view.Result.Tables)
	}
}

// TestCancelRun: POST /runs/{id}/cancel stops an in-flight sweep between
// grid points; the run reports status "canceled" with partial progress,
// and a later identical request recomputes (a canceled run must poison no
// cache).
func TestCancelRun(t *testing.T) {
	srv, ts := newTestServer(t)
	// A long sweep of many small points: cancellation latency is bounded
	// by one point's wall time, while the whole sweep takes long enough
	// that the test cannot lose the race.
	body := `{"scenario": "fig10a", "spec": {"workers": 1, "params": {"ws": "3", "iters": "4"}}}`
	view, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /runs = %d, want 202", code)
	}

	// Wait for the first point to land so the cancel provably hits a
	// running sweep.
	deadline := time.Now().Add(30 * time.Second)
	var got runView
	for {
		if getJSON(t, ts.URL+"/runs/"+view.ID, &got) != http.StatusOK {
			t.Fatalf("GET /runs/%s failed", view.ID)
		}
		if got.Status == "running" && got.Progress.Done >= 1 {
			break
		}
		if got.Status == "done" || got.Status == "error" {
			t.Fatalf("run finished (%s) before it could be canceled; enlarge the sweep", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %q", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/runs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST cancel = %d", resp.StatusCode)
	}

	for {
		getJSON(t, ts.URL+"/runs/"+view.ID, &got)
		if got.Status != "queued" && got.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never left %q after cancel", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != "canceled" {
		t.Fatalf("status = %q, want canceled", got.Status)
	}
	if got.Result != nil {
		t.Error("canceled run carries a result")
	}
	if got.Progress.Done >= got.Progress.Total {
		t.Errorf("progress = %+v; cancel should have cut the sweep short", got.Progress)
	}

	// Canceling a finished run is an idempotent no-op.
	resp, err = http.Post(ts.URL+"/runs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("second cancel = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/runs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown run = %d, want 404", resp.StatusCode)
	}

	// The canceled sweep left no poisoned cache entry behind: the same
	// spec runs to completion afterwards.
	small := `{"scenario": "fig10a", "spec": {"params": {"kinds": "ones", "ws": "1", "iters": "1"}}, "wait": true}`
	done, code := postRun(t, ts, small)
	if code != http.StatusOK || done.Status != "done" {
		t.Fatalf("post-cancel run = %d %q", code, done.Status)
	}
	if computes := srv.metrics.computes.Value(); computes < 2 {
		t.Errorf("computes = %d, want the canceled run plus the follow-up", computes)
	}
}

// TestStoreBackedCacheAcrossRestart: with a Store configured, a completed
// result survives a server restart — the second process answers from disk
// without simulating.
func TestStoreBackedCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"scenario": "fig10a", "spec": {"params": {"kinds": "ones", "ws": "1", "iters": "1"}}, "wait": true}`

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Options{MaxWorkers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	first, code := postRun(t, ts1, body)
	ts1.Close() // the "restart"
	if code != http.StatusOK || first.Status != "done" || first.Cached {
		t.Fatalf("first run: %d %q cached=%t", code, first.Status, first.Cached)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{MaxWorkers: 2, Store: st2})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	second, code := postRun(t, ts2, body)
	if code != http.StatusOK || second.Status != "done" {
		t.Fatalf("second run: %d %q", code, second.Status)
	}
	if !second.Cached {
		t.Error("restarted server did not answer from the store")
	}
	computes, storeHits := srv2.metrics.computes.Value(), srv2.metrics.storeHits.Value()
	if computes != 0 || storeHits != 1 {
		t.Errorf("computes=%d storeHits=%d, want 0 and 1", computes, storeHits)
	}
	if !reflect.DeepEqual(first.Result.Tables, second.Result.Tables) {
		t.Error("store-served tables differ from the computed ones")
	}

	// Once warmed, the in-memory LRU answers; the store is not re-read.
	third, _ := postRun(t, ts2, body)
	storeHits = srv2.metrics.storeHits.Value()
	if !third.Cached || storeHits != 1 {
		t.Errorf("third run cached=%t storeHits=%d, want LRU hit without another store read", third.Cached, storeHits)
	}
}

// TestCancelDoesNotContaminateConcurrentIdenticalRun: two concurrent
// runs of the same spec share one single-flight RowCache compute;
// canceling one must not fail the other — it recomputes under its own
// context and finishes "done".
func TestCancelDoesNotContaminateConcurrentIdenticalRun(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"scenario": "fig10a", "spec": {"workers": 1, "params": {"ws": "2", "iters": "4"}}}`

	a, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST A = %d", code)
	}
	// Wait until A is actually simulating so B will join A's in-flight
	// compute rather than win the single-flight itself.
	deadline := time.Now().Add(30 * time.Second)
	var got runView
	for {
		getJSON(t, ts.URL+"/runs/"+a.ID, &got)
		if got.Status == "running" && got.Progress.Done >= 1 {
			break
		}
		if got.Status != "queued" && got.Status != "running" {
			t.Fatalf("run A ended %q before the test could race it", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("run A never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	b, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST B = %d", code)
	}

	resp, err := http.Post(ts.URL+"/runs/"+a.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for {
		getJSON(t, ts.URL+"/runs/"+b.ID, &got)
		if got.Status == "done" || got.Status == "error" || got.Status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run B stuck in %q", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("run B ended %q (error %q); canceling A must not fail B", got.Status, got.Error)
	}
	// A itself reports canceled (or, if the race resolved the other way
	// and B's context owned the compute, A may have completed).
	getJSON(t, ts.URL+"/runs/"+a.ID, &got)
	if got.Status != "canceled" && got.Status != "done" {
		t.Errorf("run A ended %q", got.Status)
	}
}

// gateProbeRelease holds the gate-probe scenario's grid points 1..3 until
// the running test closes the channel it stores.
var gateProbeRelease atomic.Value // chan struct{}

// registerGateProbe registers, once per test binary, a synthetic scenario
// of four grid points whose points after the first wait on
// gateProbeRelease.
var registerGateProbe = sync.OnceFunc(func() {
	scenario.Register(&scenario.Scenario{
		Name:        "gate-probe",
		Description: "test only: grid points 1..3 of 4 wait for the test to release them",
		Sweep: &scenario.Sweep{
			ID: "gate-probe",
			Plan: func(scenario.Spec) (*scenario.Plan, error) {
				release := gateProbeRelease.Load().(chan struct{})
				return &scenario.Plan{
					Axes: []scenario.Axis{{Name: "i", Values: []string{"0", "1", "2", "3"}}},
					Point: func(p scenario.Point) (any, error) {
						if p.Index > 0 {
							<-release
						}
						return p.Index, nil
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
	})
})

// TestJoinedRunReportsProgress: two async POST /runs of one spec share one
// computation through the row cache, and GET /runs/{id} of the run that
// joined it follows that computation's progress: 1/4 while the grid's
// later points are held, where it used to read 0/0 until the end. Both
// runs end done at 4/4.
func TestJoinedRunReportsProgress(t *testing.T) {
	registerGateProbe()
	release := make(chan struct{})
	gateProbeRelease.Store(release)
	_, ts := newTestServer(t)
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)

	deadline := time.Now().Add(10 * time.Second)
	await := func(id string, until func(runView) bool) runView {
		t.Helper()
		var got runView
		for {
			if getJSON(t, ts.URL+"/runs/"+id, &got) != http.StatusOK {
				t.Fatalf("GET /runs/%s failed", id)
			}
			if until(got) {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck at %q %+v", id, got.Status, got.Progress)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	atFirstPoint := func(v runView) bool { return v.Progress == progressView{Done: 1, Total: 4} }
	finished := func(v runView) bool { return v.Status != "queued" && v.Status != "running" }

	body := `{"scenario":"gate-probe","spec":{"workers":1}}`
	a, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST A = %d, want 202", code)
	}
	await(a.ID, atFirstPoint)
	b, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST B = %d, want 202", code)
	}
	await(b.ID, atFirstPoint)
	open()
	for _, id := range []string{a.ID, b.ID} {
		if got := await(id, finished); got.Status != "done" || got.Progress != (progressView{Done: 4, Total: 4}) {
			t.Errorf("run %s ended %q at %+v, want done at 4/4", id, got.Status, got.Progress)
		}
	}
}

// TestOutOfRangeParamIsBadRequest: a harness width of 0 is a client error
// that names the scenario, the parameter and the value, and the server
// keeps serving. At ws=0 the harness builder used to panic inside a grid
// worker goroutine and take the whole process down.
func TestOutOfRangeParamIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		bytes.NewBufferString(`{"scenario":"fig10a","spec":{"params":{"ws":"0"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ws=0: status %d, want 400", resp.StatusCode)
	}
	for _, want := range []string{"fig10a", "ws: 0 "} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("ws=0: error %q does not contain %q", body.Error, want)
		}
	}
	view, code := postRun(t, ts, `{"scenario":"fig10a","spec":{"quick":true,"params":{"kinds":"ones","ws":"1"}},"wait":true}`)
	if code != http.StatusOK || view.Status != "done" {
		t.Fatalf("next request: status %d, run %q (%s), want 200 and done", code, view.Status, view.Error)
	}
}

// TestOversizedAttackParamIsBadRequest: an attack trial or noise count past
// attack.MaxTrials or attack.MaxNoise, or a djpeg sparsity outside
// [0,100], is a client error naming the scenario, the parameter and the
// value, and the server keeps serving. At trials=2000000000 the batch
// allocated a 96 GB slice, and at noise=2000000000 the trial programs
// unrolled 24 GB of noise, both fatal out-of-memory errors no handler can
// recover; at sparsity=-5 the image generator panicked inside a grid
// worker and took the server down.
func TestOversizedAttackParamIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct{ scenario, param, value string }{
		{"spectre", "trials", "2000000000"},
		{"spectre", "noise", "2000000000"},
		{"keyextract", "trials", "2000000000"},
		{"keyextract", "noise", "2000000000"},
		{"fig8", "sparsity", "-5"},
		{"fig9", "sparsity", "1000"},
	} {
		body := fmt.Sprintf(`{"scenario":%q,"spec":{"params":{%q:%q}}}`, tc.scenario, tc.param, tc.value)
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s=%s: status %d, want 400", tc.scenario, tc.param, tc.value, resp.StatusCode)
		}
		for _, want := range []string{tc.scenario, tc.param + ": " + tc.value + " "} {
			if !strings.Contains(got.Error, want) {
				t.Errorf("%s %s=%s: error %q does not contain %q", tc.scenario, tc.param, tc.value, got.Error, want)
			}
		}
	}
	view, code := postRun(t, ts, `{"scenario":"spectre","spec":{"params":{"attackers":"bp","archs":"baseline","trials":"2"}},"wait":true}`)
	if code != http.StatusOK || view.Status != "done" {
		t.Fatalf("next request: status %d, run %q (%s), want 200 and done", code, view.Status, view.Error)
	}
}

// registerPanicProbe registers, once per test binary, a synthetic
// scenario whose grid point 2 of 4 panics: the stand-in for a simulator
// bug that the engine's per-point guard must contain.
var registerPanicProbe = sync.OnceFunc(func() {
	scenario.Register(&scenario.Scenario{
		Name:        "panic-probe",
		Description: "test only: grid point 2 of 4 panics",
		Sweep: &scenario.Sweep{
			ID: "panic-probe",
			Plan: func(scenario.Spec) (*scenario.Plan, error) {
				return &scenario.Plan{
					Axes: []scenario.Axis{{Name: "i", Values: []string{"0", "1", "2", "3"}}},
					Point: func(p scenario.Point) (any, error) {
						if p.Index == 2 {
							panic("simulated bug")
						}
						return p.Index, nil
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
	})
})

// TestPointPanicFailsRunServerLives: a panic inside one grid point ends
// that run with status error, naming the scenario and the point, at 1 and
// 4 workers; the server keeps serving, and the next run returns 200.
func TestPointPanicFailsRunServerLives(t *testing.T) {
	registerPanicProbe()
	ts := httptest.NewServer(New(Options{MaxWorkers: 4}).Handler())
	t.Cleanup(ts.Close)
	for _, workers := range []int{1, 4} {
		view, code := postRun(t, ts, fmt.Sprintf(`{"scenario":"panic-probe","spec":{"workers":%d},"wait":true}`, workers))
		want := "panic-probe: point [2]: panic: simulated bug"
		if code != http.StatusOK || view.Status != "error" || view.Error != want {
			t.Errorf("workers=%d: status %d, run %q (%q), want 200 and error %q", workers, code, view.Status, view.Error, want)
		}
		view, code = postRun(t, ts, `{"scenario":"fig10a","spec":{"quick":true,"params":{"kinds":"ones","ws":"1"}},"wait":true}`)
		if code != http.StatusOK || view.Status != "done" {
			t.Fatalf("workers=%d: next request: status %d, run %q (%s), want 200 and done", workers, code, view.Status, view.Error)
		}
	}
}

// TestOversizedGridIsBadRequest: a spec whose list parameters multiply past
// scenario.MaxPoints gets 400 from POST /runs naming the scenario and the
// grid, and the process keeps serving. Three 1000-value lists used to pass
// the 400 check; the run then asked the engine for a 128 GB grid and the
// server died out of memory.
func TestOversizedGridIsBadRequest(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxWorkers: 2}).Handler())
	t.Cleanup(ts.Close)
	list := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 1000), ",") }
	params := map[string]string{"widths": list("4"), "gaps": list("0"), "victims": list("bit")}
	want := "keyextract: grid: "
	body, err := json.Marshal(map[string]any{"scenario": "keyextract", "spec": scenario.Spec{Params: params}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, want) || !strings.Contains(got.Error, "out of range [0,65536]") {
		t.Errorf("POST /runs: status %d (%q), want 400 naming %q and the bound", resp.StatusCode, got.Error, want)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
}
