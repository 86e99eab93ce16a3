package pipeline

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Tracer is a bounded ring-buffer recorder for SpecEvents. Arm it with
// Core.SetSpecWatch(t.Record): every speculative-window event is stored in a
// preallocated ring (oldest events drop when the ring wraps). Dispositions
// are resolved when the events are read (Events and the renderers), in one
// backward pass over the retained events, so a finished trace reads like a
// post-mortem: every retained event knows how it resolved.
//
// Record is allocation-free: the ring is sized at construction and never
// grows. A Tracer serves one core; it is not safe for concurrent use (the
// parallel trial engines need a shared sink, not a shared ring — see
// SetSpecWatchDefault).
type Tracer struct {
	ring  []SpecEvent
	total uint64 // absolute count of events recorded

	byKind [specKindCount]uint64
}

// NewTracer builds a tracer retaining the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpecEvent, capacity)}
}

// Record stores one event. Pass it to Core.SetSpecWatch.
func (t *Tracer) Record(ev SpecEvent) {
	t.ring[t.total%uint64(len(t.ring))] = ev
	t.byKind[ev.Kind]++
	t.total++
}

// resolve settles the disposition of every still-speculative event in
// events, a recording-ordered stream, in one backward pass. Sequence
// numbers are never reused and retirement is in program order, so an event
// is squashed when a later SpecFlush squashed everything above a lower seq,
// and committed when a later SpecCommit retired its seq or a younger one.
// That covers ops the core emits no SpecCommit for (the IL1 fills charged
// to an unwatched ALU op's fetch). An event neither rule reaches was still
// in flight when the run ended. A SpecFlush is itself an architectural
// fact, so it resolves to committed.
func resolve(events []SpecEvent) {
	flushFloor := uint64(math.MaxUint64) // lowest seq a later flush kept
	commitEnd := uint64(0)               // 1 + highest seq a later commit retired
	for i := len(events) - 1; i >= 0; i-- {
		ev := &events[i]
		switch ev.Kind {
		case SpecFlush:
			ev.Disp = DispCommitted
			flushFloor = min(flushFloor, ev.Seq)
		case SpecCommit:
			commitEnd = max(commitEnd, ev.Seq+1)
		}
		switch {
		case ev.Disp != DispSpeculative:
		case ev.Seq > flushFloor:
			ev.Disp = DispSquashed
		case ev.Seq < commitEnd:
			ev.Disp = DispCommitted
		}
	}
}

// Total returns how many events were recorded (including dropped ones).
func (t *Tracer) Total() uint64 { return t.total }

// Dropped returns how many events fell off the ring.
func (t *Tracer) Dropped() uint64 {
	if t.total > uint64(len(t.ring)) {
		return t.total - uint64(len(t.ring))
	}
	return 0
}

// Events returns the retained events in recording order (a copy), with
// their dispositions resolved.
func (t *Tracer) Events() []SpecEvent {
	n := t.total
	capR := uint64(len(t.ring))
	if n > capR {
		n = capR
	}
	out := make([]SpecEvent, 0, n)
	start := t.total - n
	for abs := start; abs < t.total; abs++ {
		out = append(out, t.ring[abs%capR])
	}
	resolve(out)
	return out
}

// KindCounts returns the per-kind totals over all recorded events.
func (t *Tracer) KindCounts() map[string]uint64 {
	m := make(map[string]uint64, specKindCount)
	for k := SpecKind(0); k < specKindCount; k++ {
		if t.byKind[k] > 0 {
			m[k.String()] = t.byKind[k]
		}
	}
	return m
}

// WriteText renders the retained events as a cycle-ordered timeline, one
// event per line, with a trailing per-kind summary.
func (t *Tracer) WriteText(w io.Writer) error {
	events := t.Events()
	if _, err := fmt.Fprintf(w, "# spec trace: %d events recorded, %d retained, %d dropped\n",
		t.Total(), len(events), t.Dropped()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s %8s  %-11s %-11s %-18s %s\n",
		"cycle", "seq", "disp", "kind", "pc", "detail"); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		if _, err := fmt.Fprintf(w, "%10d %8d  %-11s %-11s %#-18x %s\n",
			ev.Cycle, ev.Seq, ev.Disp, ev.Kind, ev.PC, specDetail(ev)); err != nil {
			return err
		}
	}
	keys := make([]string, 0, specKindCount)
	counts := t.KindCounts()
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "# %-11s %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// specDetail renders the kind-specific fields of one event.
func specDetail(ev *SpecEvent) string {
	switch ev.Kind {
	case SpecFetch, SpecBPLookup:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		if ev.Addr != 0 {
			return fmt.Sprintf("pred=%s target=%#x", dir, ev.Addr)
		}
		return "pred=" + dir
	case SpecBranchExec:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		if ev.Mispredict {
			return fmt.Sprintf("%s target=%#x MISPREDICT", dir, ev.Addr)
		}
		return fmt.Sprintf("%s target=%#x", dir, ev.Addr)
	case SpecMemExec:
		if ev.Write {
			return fmt.Sprintf("store addr=%#x", ev.Addr)
		}
		return fmt.Sprintf("load addr=%#x lat=%d", ev.Addr, ev.Lat)
	case SpecCacheFill:
		return fmt.Sprintf("%s fill line=%#x", SpecLevelName(ev.Level), ev.Addr)
	case SpecCacheEvict:
		return fmt.Sprintf("%s evict line=%#x", SpecLevelName(ev.Level), ev.Addr)
	case SpecBPUpdate:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		return fmt.Sprintf("train %s target=%#x", dir, ev.Addr)
	case SpecFlush:
		return fmt.Sprintf("cause=%s target=%#x squashed=%d dropped=%d",
			ev.Cause, ev.Addr, ev.SquashedROB, ev.DroppedFE)
	default:
		return ""
	}
}

// WriteChromeJSON renders the retained events in Chrome's trace_event JSON
// array format (load in chrome://tracing or Perfetto; 1 cycle = 1 µs).
// Events are instant events on one process, with a thread per kind so the
// viewer groups fetch/execute/cache/flush activity into separate rows.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			`  {"name":%q,"ph":"i","s":"t","ts":%d,"pid":1,"tid":%d,`+
				`"args":{"seq":%d,"pc":"%#x","disp":%q,"detail":%q}}%s`+"\n",
			ev.Kind.String(), ev.Cycle, int(ev.Kind)+1,
			ev.Seq, ev.PC, ev.Disp.String(), specDetail(ev), sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
