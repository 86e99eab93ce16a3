package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterExposition pins the exposition format for counters, plain and
// labeled: HELP/TYPE headers, registration-order families, sorted children.
func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations")
	c.Inc()
	c.Add(4)
	v := r.CounterVec("test_requests_total", "requests", "route", "code")
	v.With("GET /runs", "200").Add(3)
	v.With("GET /runs", "404").Inc()
	v.With("GET /b", "200").Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_ops_total operations
# TYPE test_ops_total counter
test_ops_total 5
# HELP test_requests_total requests
# TYPE test_requests_total counter
test_requests_total{route="GET /b",code="200"} 1
test_requests_total{route="GET /runs",code="200"} 3
test_requests_total{route="GET /runs",code="404"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestGaugeAndFuncMetrics: gauges set, func metrics read at scrape.
func TestGaugeAndFuncMetrics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_occupancy", "slots in use")
	g.Set(2)
	g.Set(1.5)
	if got := r.Snapshot()["test_occupancy"]; got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	live := 7.0
	r.CounterFunc("test_live_total", "read at scrape", func() float64 { return live })
	r.CounterFunc("test_cum_total", "cumulative", func() float64 { return 42 })

	var b strings.Builder
	r.WriteText(&b)
	for _, line := range []string{"test_occupancy 1.5", "test_live_total 7", "test_cum_total 42"} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
	live = 8
	b.Reset()
	r.WriteText(&b)
	if !strings.Contains(b.String(), "test_live_total 8\n") {
		t.Errorf("func metric not re-read at scrape:\n%s", b.String())
	}
	if got := r.Snapshot()["test_live_total"]; got != 8 {
		t.Errorf("snapshot of func metric = %v, want 8", got)
	}
}

// TestHistogramExposition: cumulative buckets, +Inf, _sum and _count, and
// label merging with le.
func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_seconds", "latency", []float64{0.1, 1}, "route")
	ch := h.With("GET /x")
	for _, v := range []float64{0.05, 0.5, 0.5, 5} {
		ch.Observe(v)
	}
	var b strings.Builder
	r.WriteText(&b)
	want := `# HELP test_seconds latency
# TYPE test_seconds histogram
test_seconds_bucket{route="GET /x",le="0.1"} 1
test_seconds_bucket{route="GET /x",le="1"} 3
test_seconds_bucket{route="GET /x",le="+Inf"} 4
test_seconds_sum{route="GET /x"} 6.05
test_seconds_count{route="GET /x"} 4
`
	if b.String() != want {
		t.Errorf("histogram exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// expositionLine matches every legal sample line; the serve tests reuse the
// same shape for scrape validity.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+\-]+|\+Inf|NaN)$`)

// TestExpositionValidity: every non-comment line of a mixed registry
// parses as a sample, and every family has HELP and TYPE headers.
func TestExpositionValidity(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Inc()
	r.GaugeVec("b", "b", "x").With(`quo"te`).Set(1)
	r.HistogramVec("c_seconds", "c", nil).With().Observe(0.2)
	var b strings.Builder
	r.WriteText(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	helps, types := 0, 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP") {
			helps++
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			types++
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid sample line %q", line)
		}
	}
	if helps != 3 || types != 3 {
		t.Errorf("got %d HELP / %d TYPE headers, want 3/3", helps, types)
	}
}

// TestRegistrationIdempotent: same name and shape returns the same family;
// a type mismatch panics.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("re-registered counter not shared: %d", a.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a different type did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestSnapshot: the flattened map agrees with the typed accessors and runs
// OnScrape collectors.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "s").Add(3)
	g := r.Gauge("s_gauge", "g")
	r.OnScrape(func() { g.Set(9) })
	h := r.HistogramVec("s_seconds", "h", []float64{1}).With()
	h.Observe(0.5)
	h.Observe(2)
	snap := r.Snapshot()
	for series, want := range map[string]float64{
		"s_total": 3, "s_gauge": 9, "s_seconds_count": 2, "s_seconds_sum": 2.5,
	} {
		if snap[series] != want {
			t.Errorf("snapshot[%q] = %v, want %v (full: %v)", series, snap[series], want, snap)
		}
	}
}

// TestConcurrentUse hammers counters, a histogram, and scrapes from many
// goroutines; run under -race this is the registry's thread-safety gate.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("cc_total", "c", "w")
	h := r.HistogramVec("ch_seconds", "h", nil).With()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lbl := string(rune('a' + i%3))
			for n := 0; n < 500; n++ {
				c.With(lbl).Inc()
				h.Observe(float64(n) / 1000)
				if n%100 == 0 {
					var b strings.Builder
					r.WriteText(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if total := snap[`cc_total{w="a"}`] + snap[`cc_total{w="b"}`] + snap[`cc_total{w="c"}`]; total != 4000 {
		t.Errorf("lost increments: total = %v, want 4000", total)
	}
	if snap["ch_seconds_count"] != 4000 {
		t.Errorf("histogram count = %v, want 4000", snap["ch_seconds_count"])
	}
}

// TestJournalOrderingAndSpans: events are strictly sequenced, timestamps
// are monotone, and span begin/end pairs share an id with a duration on
// the end event.
func TestJournalOrderingAndSpans(t *testing.T) {
	j := NewJournal()
	j.Event("start", Fields{"k": "v"})
	sp := j.Begin("work", Fields{"shard": 1})
	time.Sleep(time.Millisecond)
	j.Event("mid", nil)
	sp.End(Fields{"ok": true})
	ev := j.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.AtMicros < ev[i-1].AtMicros {
			t.Errorf("timestamps not monotone at %d: %d < %d", i, e.AtMicros, ev[i-1].AtMicros)
		}
	}
	begin, end := ev[1], ev[3]
	if begin.Phase != "begin" || end.Phase != "end" || begin.Span != end.Span || begin.Span == 0 {
		t.Errorf("span pair broken: begin=%+v end=%+v", begin, end)
	}
	if end.DurUS < 1000 {
		t.Errorf("span duration %dus, want >= 1ms", end.DurUS)
	}
	if begin.Fields["shard"] != 1 {
		t.Errorf("begin fields lost: %+v", begin.Fields)
	}
}

// TestJournalNilSafe: a nil journal accepts the full API as no-ops — the
// inertness contract instrumented code relies on.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Event("x", nil)
	sp := j.Begin("y", Fields{"a": 1})
	sp.End(nil)
	if j.Events() != nil || j.Len() != 0 {
		t.Error("nil journal returned events")
	}
}

// TestJournalJSONRoundTrip: the wire schema (seq/t_us/name/phase/span/
// dur_us/fields) survives a JSON round trip.
func TestJournalJSONRoundTrip(t *testing.T) {
	j := NewJournal()
	sp := j.Begin("dispatch", Fields{"worker": "http://w1", "points": 4})
	sp.End(Fields{"ok": true})
	raw, err := json.Marshal(j.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "dispatch" || back[0].Fields["worker"] != "http://w1" {
		t.Errorf("round trip mangled events: %s", raw)
	}
	if back[1].Span != back[0].Span {
		t.Errorf("span ids diverged in JSON: %s", raw)
	}
}

// TestJournalConcurrentAppend: parallel appends never lose or duplicate a
// sequence number (the -race gate for the journal).
func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				sp := j.Begin("e", nil)
				sp.End(nil)
			}
		}()
	}
	wg.Wait()
	ev := j.Events()
	if len(ev) != 3200 {
		t.Fatalf("got %d events, want 3200", len(ev))
	}
	for i, e := range ev {
		if e.Seq != i {
			t.Fatalf("seq %d at position %d", e.Seq, i)
		}
	}
}
