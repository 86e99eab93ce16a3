package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// tree is a root [0,10ms) with children [1,3) and [4,8); the second child
// has a grandchild [5,6).
func tree() []span {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	return []span{
		{name: "point", layer: "scenario", id: 7, lane: 1, start: ms(0), end: ms(10)},
		{name: "compile.Compile", layer: "compile", id: 7, lane: 1, parent: 1, start: ms(1), end: ms(3)},
		{name: "Core.Run", layer: "pipeline", id: 7, lane: 1, parent: 1, start: ms(4), end: ms(8)},
		{name: "inner", layer: "pipeline", id: 7, lane: 1, parent: 3, start: ms(5), end: ms(6)},
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{4 * ms, 2 * ms, 3 * ms, 1 * ms}
	got := selfTimes(tree())
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, got[i], want[i])
		}
	}
	if c := coverage(tree(), 20*ms); c != 0.5 {
		t.Errorf("coverage = %v, want 0.5", c)
	}
}

func TestChromeTraceIsLoadable(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, tree()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args["id"] != float64(7) {
			t.Errorf("bad event %+v", ev)
		}
	}
	if self := doc.TraceEvents[0].Args["self_us"]; self != float64(4000) {
		t.Errorf("root self time %v us, want 4000", self)
	}
}

func TestRecorderPairsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("point", "scenario", 1, 1, 0)
	child := r.begin("Core.Run", "pipeline", 1, 1, root)
	r.end(child)
	if err := writeChrome(&bytes.Buffer{}, r.snapshot()); err == nil {
		t.Error("a span that never ended was written")
	}
	r.end(root)
	spans := r.snapshot()
	if err := writeChrome(&bytes.Buffer{}, spans); err != nil {
		t.Fatal(err)
	}
	if spans[1].parent != root || spans[1].start < spans[0].start || spans[1].end > spans[0].end {
		t.Errorf("child %+v does not nest in root %+v", spans[1], spans[0])
	}
	var nilRec *recorder
	if h := nilRec.begin("x", "y", 0, 0, 0); h != 0 {
		t.Error("nil recorder returned a handle")
	}
	nilRec.end(0)
}
