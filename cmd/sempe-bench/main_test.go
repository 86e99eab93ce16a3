package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
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

// event is one entry of an -events journal.
type event struct {
	Name, Phase string
	Fields      map[string]any
}

// journal reads an -events file.
func journal(t *testing.T, path string) []event {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-events file: %v", err)
	}
	var events []event
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("-events file: %v\n%s", err, raw)
	}
	return events
}

// count returns how many events of a journal have the name and phase.
func count(events []event, name, phase string) int {
	n := 0
	for _, e := range events {
		if e.Name == name && e.Phase == phase {
			n++
		}
	}
	return n
}

// provenance returns the store provenance lines of a run's output.
func provenance(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " from store") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestStoreRunsWarm: a sweep through a result store prints what the run
// without one prints. A cold store simulates all 12 points of quick fig10a
// and the one point of table2; a warm one serves every point from disk,
// table2's nil row included. The run without a store journals its sweep
// and point spans with -events.
func TestStoreRunsWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig10a,table2", "-quick", "-stable", "-format", "json", "-parallel", "2"}
	events := filepath.Join(dir, "events.json")
	code, local := clitest.Run(t, append(args, "-events", events)...)
	if code != 0 {
		t.Fatalf("local run: exit %d, output:\n%s", code, local)
	}
	if j := journal(t, events); count(j, "sweep", "begin") != 2 || count(j, "point", "begin") != 13 {
		t.Errorf("local journal %v, want 2 sweep and 13 point spans", j)
	}
	for _, tc := range []struct {
		run  string
		want []string
	}{
		{"cold", []string{"fig10a: 12 points, 0 from store", "table2: 1 points, 0 from store"}},
		{"warm", []string{"fig10a: 12 points, 12 from store", "table2: 1 points, 1 from store"}},
	} {
		code, out := clitest.Run(t, append(args, "-store", filepath.Join(dir, "store"))...)
		if got := provenance(out); code != 0 || strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Fatalf("%s store: exit %d, provenance %q, output:\n%s\nwant exit 0 and %q", tc.run, code, got, out, tc.want)
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
		{[]string{"-exp", "fig10a", "-format", "xml"}, `sempe-bench: unknown format "xml"`},
	} {
		code, out := clitest.Run(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "panic") {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1 and %q, no panic", tc.args, code, out, tc.want)
		}
	}
}

// TestFailedSweepKeepsEvents: a run whose second scenario rejects a
// parameter the first accepts (fig8 has no ws) exits 1 naming the
// problem, yet still writes the -events journal, holding fig10a's sweep
// span and its store_scan event.
func TestFailedSweepKeepsEvents(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.json")
	code, out := clitest.Run(t, "-exp", "fig10a,fig8", "-param", "ws=1", "-quick",
		"-store", filepath.Join(dir, "store"), "-events", events)
	if want := `sempe-bench: fig8: unknown parameter "ws"`; code != 1 || !strings.Contains(out, want) {
		t.Fatalf("exit %d, output:\n%s\nwant exit 1 and %q", code, out, want)
	}
	var sweeps []any
	j := journal(t, events)
	for _, e := range j {
		if e.Name == "sweep" && e.Phase == "begin" {
			sweeps = append(sweeps, e.Fields["scenario"])
		}
	}
	if len(sweeps) != 1 || sweeps[0] != "fig10a" || count(j, "sweep", "end") != 1 || count(j, "store_scan", "") != 1 {
		t.Errorf("journal %v, want fig10a's sweep span and store_scan event", j)
	}
}

// TestSharedSweepDispatchedOnce: fig10a and table1 render one sweep, so a
// store-backed run of both fills that 12-point grid once: only fig10a
// prints a provenance line, and the journal holds 12 point spans, not 24.
func TestSharedSweepDispatchedOnce(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.json")
	code, out := clitest.Run(t, "-exp", "fig10a,table1", "-quick", "-parallel", "2",
		"-store", filepath.Join(dir, "store"), "-events", events)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if got, want := provenance(out), "fig10a: 12 points, 0 from store"; len(got) != 1 || got[0] != want {
		t.Errorf("provenance lines %q, want only %q", got, want)
	}
	if n := count(journal(t, events), "point", "begin"); n != 12 {
		t.Errorf("journal holds %d point spans, want 12", n)
	}
}
