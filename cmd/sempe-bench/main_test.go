package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/serve"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// result returns the JSON array of a several-scenario run's results from
// its combined output, which stderr's progress lines surround.
func result(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "\n[")
	var raw json.RawMessage
	if i < 0 || json.NewDecoder(strings.NewReader(out[i+1:])).Decode(&raw) != nil {
		t.Fatalf("no JSON result in the output:\n%s", out)
	}
	return string(raw)
}

// eventNames returns the distinct event names of a journal file.
func eventNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-events file: %v", err)
	}
	var events []struct{ Name string }
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("-events file: %v\n%s", err, raw)
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
	}
	return names
}

// TestStoreRunsWarm: a sweep through a result store prints what the local
// run prints. A cold store simulates all 12 points of quick fig10a and the
// one point of table2; a warm one serves every point from disk, table2's
// nil row included, and dispatches nothing. The local run journals its
// sweep and point spans with -events.
func TestStoreRunsWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig10a,table2", "-quick", "-stable", "-format", "json", "-parallel", "2"}
	events := filepath.Join(dir, "events.json")
	code, local := clitest.Run(t, append(args, "-events", events)...)
	if code != 0 {
		t.Fatalf("local run: exit %d, output:\n%s", code, local)
	}
	if names := eventNames(t, events); !names["sweep"] || !names["point"] {
		t.Errorf("local journal events %v, want sweep and point spans", names)
	}
	for _, tc := range []struct{ run, fig10a, table2 string }{
		{"cold", "fig10a: 12 points, 0 from store, 0 shards in 0 dispatches", "table2: 1 points, 0 from store"},
		{"warm", "fig10a: 12 points, 12 from store, 0 shards in 0 dispatches", "table2: 1 points, 1 from store"},
	} {
		code, out := clitest.Run(t, append(args, "-store", filepath.Join(dir, "store"))...)
		if code != 0 || !strings.Contains(out, tc.fig10a) || !strings.Contains(out, tc.table2) {
			t.Fatalf("%s store: exit %d, output:\n%s\nwant exit 0, %q and %q", tc.run, code, out, tc.fig10a, tc.table2)
		}
		if result(t, out) != result(t, local) {
			t.Errorf("%s store: result differs from the local run's", tc.run)
		}
	}
}

// TestBadSweepFlagsExit1: each flag set is a configuration mistake that
// must exit 1 with a named error before anything runs.
func TestBadSweepFlagsExit1(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gc"}, "sempe-bench: -gc requires -store"},
		{[]string{"-exp", "fig11"}, `sempe-bench: unknown experiment "fig11"; registered scenarios: `},
		{[]string{"-exp", "fig10a", "-workers", "a,,b"}, `sempe-bench: cluster: empty worker entry at position 2 in "a,,b"`},
		{[]string{"-exp", "fig10a", "-format", "xml"}, `sempe-bench: unknown format "xml"`},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
}

// TestFailedSweepKeepsEvents: a coordinated sweep whose only worker is
// unreachable exits 1, yet still prints its provenance line and writes the
// -events journal holding the probe span and the worker_unreachable event
// that explain the failure.
func TestFailedSweepKeepsEvents(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.json")
	code, out := clitest.Run(t, "-exp", "fig10a", "-quick",
		"-workers", "http://127.0.0.1:1", "-events", events)
	for _, want := range []string{
		"fig10a: 12 points, 0 from store, 0 shards in 0 dispatches",
		"sempe-bench: fig10a: cluster: no worker reachable at startup",
	} {
		if code != 1 || !strings.Contains(out, want) {
			t.Errorf("exit %d, output:\n%s\nwant exit 1 and %q", code, out, want)
		}
	}
	if names := eventNames(t, events); !names["probe"] || !names["worker_unreachable"] {
		t.Errorf("journal events %v, want a probe span and a worker_unreachable event", names)
	}
}

// TestSharedSweepDispatchedOnce: fig10a and table1 render one sweep, so a
// run of both against one worker dispatches that 12-point grid once: the
// worker counts 12 shard points, and only fig10a prints a dispatch line.
func TestSharedSweepDispatchedOnce(t *testing.T) {
	worker := httptest.NewServer(serve.New(serve.Options{MaxWorkers: 2, Worker: true}).Handler())
	defer worker.Close()
	code, out := clitest.Run(t, "-exp", "fig10a,table1", "-quick", "-parallel", "2", "-workers", worker.URL)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	var provenance []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " dispatches, ") {
			provenance = append(provenance, line)
		}
	}
	if want := "fig10a: 12 points, 0 from store, 2 shards in 2 dispatches, 0 retries"; len(provenance) != 1 || provenance[0] != want {
		t.Errorf("dispatch lines %q, want only %q", provenance, want)
	}

	resp, err := http.Get(worker.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "\nsempe_shard_points_total 12\n"; !strings.Contains(string(metrics), want) {
		t.Errorf("worker metrics lack %q:\n%s", strings.TrimSpace(want), metrics)
	}
}
