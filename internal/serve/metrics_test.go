package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleLine matches one Prometheus text-exposition sample:
// name{labels} value, the labels being optional.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|-?[0-9][0-9eE.+-]*)$`)

// scrape fetches url and parses the exposition into samples keyed by the
// full sample name (labels included), validating every line on the way.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, body
}

// onePointBody is a single-point fig10a run, the cheapest real sweep.
const onePointBody = `{"scenario": "fig10a", "spec": {"params": {"kinds": "fibonacci", "ws": "1", "iters": "2"}}, "wait": true}`

// TestMetricsExposition pins the families and values GET /metrics reports
// after a known request sequence: one computed run, one LRU cache hit.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)

	if code := getJSON(t, ts.URL+"/scenarios", nil); code != http.StatusOK {
		t.Fatalf("GET /scenarios = %d", code)
	}
	for i := 0; i < 2; i++ {
		if view, code := postRun(t, ts, onePointBody); code != http.StatusOK || view.Status != "done" {
			t.Fatalf("POST /runs #%d = %d, status %q", i, code, view.Status)
		}
	}

	samples, body := scrape(t, ts.URL+"/metrics")

	// Every family must carry both exposition headers.
	for _, fam := range []string{
		"sempe_http_requests_total", "sempe_http_request_seconds",
		"sempe_runs_created_total", "sempe_runs_finished_total",
		"sempe_serve_cache_hits_total", "sempe_serve_store_hits_total",
		"sempe_serve_computes_total", "sempe_runs",
		"sempe_sim_semaphore_occupancy", "sempe_sim_semaphore_capacity",
	} {
		for _, header := range []string{"# HELP ", "# TYPE "} {
			if !strings.Contains(body, header+fam+" ") {
				t.Errorf("exposition missing %s%s", header, fam)
			}
		}
	}

	want := map[string]float64{
		`sempe_runs_created_total`:                                                  2,
		`sempe_serve_computes_total`:                                                1,
		`sempe_serve_cache_hits_total`:                                              1,
		`sempe_serve_store_hits_total`:                                              0,
		`sempe_runs_finished_total{status="done"}`:                                  2,
		`sempe_runs{status="done"}`:                                                 2,
		`sempe_runs{status="running"}`:                                              0,
		`sempe_sim_semaphore_occupancy`:                                             0,
		`sempe_sim_semaphore_capacity`:                                              2,
		`sempe_http_requests_total{route="POST /runs",method="POST",code="200"}`:    2,
		`sempe_http_requests_total{route="GET /scenarios",method="GET",code="200"}`: 1,
		`sempe_http_request_seconds_count{route="POST /runs"}`:                      2,
	}
	for name, v := range want {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, v)
		}
	}
	if sum := samples[`sempe_http_request_seconds_sum{route="POST /runs"}`]; sum <= 0 {
		t.Errorf("request-latency sum for POST /runs = %v, want > 0", sum)
	}
	if inf := samples[`sempe_http_request_seconds_bucket{route="POST /runs",le="+Inf"}`]; inf != 2 {
		t.Errorf("+Inf latency bucket for POST /runs = %v, want 2", inf)
	}
}

// TestMetricsConcurrentScrape exercises /metrics under concurrent load for
// the race detector: scrapes race run creation, polls, and each other.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	get := func(path string) { // goroutine-safe: t.Error, never t.Fatal
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				get("/metrics")
			}
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(onePointBody))
			if err != nil {
				t.Error(err)
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			get("/runs")
		}()
	}
	wg.Wait()
	samples, _ := scrape(t, ts.URL+"/metrics")
	if got := samples[`sempe_runs_created_total`]; got != 4 {
		t.Fatalf("sempe_runs_created_total = %v, want 4", got)
	}
}

// TestRunEventsEndpoint: a local run's journal streams over GET
// /runs/{id}/events with the engine's sweep and point spans in order.
func TestRunEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	view, code := postRun(t, ts, onePointBody)
	if code != http.StatusOK || view.Status != "done" {
		t.Fatalf("POST /runs = %d, status %q", code, view.Status)
	}

	var ev eventsView
	if code := getJSON(t, ts.URL+"/runs/"+view.ID+"/events", &ev); code != http.StatusOK {
		t.Fatalf("GET /runs/%s/events = %d", view.ID, code)
	}
	if ev.ID != view.ID || ev.Status != "done" || ev.Count != len(ev.Events) {
		t.Fatalf("events view = %+v", ev)
	}
	counts := map[string]int{}
	for i, e := range ev.Events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d, want dense ordering", i, e.Seq)
		}
		counts[e.Name+"/"+e.Phase]++
	}
	for _, want := range []string{
		"created/", "running/", "sweep/begin", "sweep/end",
		"point/begin", "point/end", "done/",
	} {
		if counts[want] == 0 {
			t.Errorf("journal missing %q event; got %v", want, counts)
		}
	}
	if got := counts["point/begin"]; got != 1 {
		t.Errorf("point begin spans = %d, want 1 (single-point grid)", got)
	}

	if code := getJSON(t, ts.URL+"/runs/nope/events", nil); code != http.StatusNotFound {
		t.Fatalf("GET /runs/nope/events = %d, want 404", code)
	}
}

// TestPprofOptIn: the profile endpoints exist only behind EnablePprof.
func TestPprofOptIn(t *testing.T) {
	_, plain := newTestServer(t)
	if code := getJSON(t, plain.URL+"/debug/pprof/cmdline", nil); code != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", code)
	}
	srv := New(Options{MaxWorkers: 2, EnablePprof: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("pprof with opt-in = %d, want 200", code)
	}
}

// TestFrontEndDispatchesSharedSweepOnce: fig10a and fig10b render one
// sweep, so a server running both on one 4-point spec simulates that grid
// once. fig10a's run journals 4 point spans, and fig10b's, which takes its
// rows from the server's row cache, journals none.
func TestFrontEndDispatchesSharedSweepOnce(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"params": {"kinds": "fibonacci,ones", "ws": "1,2", "iters": "2"}}`
	for _, tc := range []struct {
		name   string
		points int
	}{{"fig10a", 4}, {"fig10b", 0}} {
		view, code := postRun(t, ts, fmt.Sprintf(`{"scenario": %q, "spec": %s, "wait": true}`, tc.name, spec))
		if code != http.StatusOK || view.Status != "done" || view.Progress != (progressView{Done: 4, Total: 4}) {
			t.Fatalf("%s: POST /runs = %d, status %q, progress %+v (err %q)", tc.name, code, view.Status, view.Progress, view.Error)
		}
		var ev eventsView
		if code := getJSON(t, ts.URL+"/runs/"+view.ID+"/events", &ev); code != http.StatusOK {
			t.Fatalf("GET /runs/%s/events = %d", view.ID, code)
		}
		points := 0
		for _, e := range ev.Events {
			if e.Name == "point" && e.Phase == "begin" {
				points++
			}
		}
		if points != tc.points {
			t.Errorf("%s journals %d point spans, want %d", tc.name, points, tc.points)
		}
	}
}

// TestQueuedCancelIsCountedAndJournaled: a run canceled while still queued
// for a simulation slot ends through the same terminal step as a computed
// run, so it is counted in sempe_runs_finished_total, journals its terminal
// event and logs its outcome.
func TestQueuedCancelIsCountedAndJournaled(t *testing.T) {
	var logs bytes.Buffer
	srv := heldServer(Options{MaxWorkers: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	view, code := postRun(t, ts, `{"scenario": "fig10a", "spec": {"quick": true}}`)
	if code != http.StatusAccepted || view.Status != "queued" {
		t.Fatalf("POST /runs = %d, status %q; want 202 queued behind the held slots", code, view.Status)
	}
	resp, err := http.Post(ts.URL+"/runs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.mu.Lock()
	rn := srv.runs[view.ID]
	srv.mu.Unlock()
	select {
	case <-rn.finished:
	case <-time.After(30 * time.Second):
		t.Fatal("queued run never finished after cancel")
	}

	samples, _ := scrape(t, ts.URL+"/metrics")
	if got := samples[`sempe_runs_finished_total{status="canceled"}`]; got != 1 {
		t.Errorf(`sempe_runs_finished_total{status="canceled"} = %v, want 1`, got)
	}
	var ev eventsView
	if code := getJSON(t, ts.URL+"/runs/"+view.ID+"/events", &ev); code != http.StatusOK {
		t.Fatalf("GET /runs/%s/events = %d", view.ID, code)
	}
	var names []string
	for _, e := range ev.Events {
		names = append(names, e.Name)
	}
	if ev.Status != "canceled" || !slices.Equal(names, []string{"created", "canceled"}) {
		t.Errorf("events of a queued cancel: status %q, %v; want canceled, [created canceled]", ev.Status, names)
	}
	if line := logs.String(); !strings.Contains(line, "run finished") || !strings.Contains(line, "status=canceled") {
		t.Errorf("log = %q, want a run finished line with status=canceled", line)
	}
	if computes := srv.metrics.computes.Value(); computes != 0 {
		t.Errorf("computes = %d, want 0: a queued cancel never simulates", computes)
	}
}

// TestMetricsExportRunCounters: GET /metrics carries the simulator's
// run-counter families, and one computed run moves the runs, instructions
// and cycles they count.
func TestMetricsExportRunCounters(t *testing.T) {
	_, ts := newTestServer(t)
	families := []string{
		"sempe_pipeline_runs_total", "sempe_pipeline_insts_total",
		"sempe_pipeline_cycles_total", "sempe_pipeline_skipped_cycles_total",
		"sempe_attack_forks_total", "sempe_attack_fork_misses_total",
	}
	before, _ := scrape(t, ts.URL+"/metrics")
	if view, code := postRun(t, ts, onePointBody); code != http.StatusOK || view.Status != "done" {
		t.Fatalf("POST /runs = %d, status %q", code, view.Status)
	}
	after, body := scrape(t, ts.URL+"/metrics")
	for _, fam := range families {
		if !strings.Contains(body, "# TYPE "+fam+" counter") {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	for _, fam := range families[:3] {
		if after[fam] <= before[fam] {
			t.Errorf("%s moved from %v to %v over a computed run, want an increase", fam, before[fam], after[fam])
		}
	}
}
