package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	name   string
	layer  string
	id     int // grid point, key-extraction row or request the span serves
	lane   int // Chrome thread id: spans on one lane nest
	parent int // handle of the enclosing span; 0 for a root
	start  time.Duration
	end    time.Duration // -1 while open
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps a traced run's spans in memory until the run ends. A nil
// *recorder records nothing, so the traced and untraced paths share code.
// Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name, layer string, id, lane, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, layer: layer, id: id, lane: lane, parent: parent, start: now, end: -1})
	return len(r.spans)
}

func (r *recorder) end(h int) {
	if r == nil || h == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[h-1].end = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (server-side
// queue and sweep times taken from a run's event journal).
func (r *recorder) add(name, layer string, id, lane, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, layer: layer, id: id, lane: lane, parent: parent,
		start: start.Sub(r.t0), end: end.Sub(r.t0)})
	return len(r.spans)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover. Children are clipped to the parent's interval
// and must not overlap each other (calls made one after another).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, c := range spans {
		if c.parent == 0 {
			continue
		}
		p := spans[c.parent-1]
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			self[c.parent-1] -= hi - lo
		}
	}
	return self
}

// coverage is the summed self time of every span over the wall time of the
// traced phase: the share of that phase the spans account for.
func coverage(spans []span, wall time.Duration) float64 {
	var t time.Duration
	for _, s := range selfTimes(spans) {
		t += s
	}
	return ratio(float64(t), float64(wall))
}

// millis lists the durations, in ms, of the spans with the given name.
func millis(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace_event document (loadable
// in chrome://tracing and Perfetto). Every span must have ended.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("trace: span %q (id %d) never ended", s.name, s.id)
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "span": i + 1, "parent": s.parent, "self_us": float64(self[i]) / 1e3},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeTraceFile writes dir/<workload>.trace.json.
func writeTraceFile(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
