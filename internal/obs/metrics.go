// Package obs is the repository's observability layer: a dependency-free,
// goroutine-safe metrics registry rendering Prometheus text exposition
// format, and a structured run-event journal of ordered JSON events with
// monotonic timestamps and span begin/end pairs.
//
// The layer is designed to be architecturally inert: nothing in it touches
// simulator state, metric reads happen at scrape time (func metrics read
// existing atomic counters), and a nil *Journal is a valid no-op sink — so
// instrumented and uninstrumented runs produce byte-identical results and
// the steady-state pipeline loop stays allocation-free. The experiments
// package pins both properties with a differential test.
//
// Metric families follow Prometheus conventions: a name, a help string, a
// type (counter, gauge, histogram), and an optional fixed label set. The
// process-wide Default registry carries simulator-global counters (the
// attack throughput engine registers its template/core/superblock counters
// there); servers create their own registry for per-server state and render
// both on GET /metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// defaultRegistry carries process-wide metric families (simulator counters
// registered from package inits). Servers render it after their own.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// kind is a metric family's type, in exposition-format spelling.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Registry is a set of metric families. All methods are safe for
// concurrent use; registration is idempotent (re-registering a name
// returns the existing family) and panics on a type or label-arity
// mismatch, which is a programming error.
type Registry struct {
	mu         sync.Mutex
	families   []*family // registration order, which is render order
	byName     map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric family with zero or more labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	order    []string // child keys, sorted at render

	fn func() float64 // func metrics: read at scrape, no children
}

// child is one label combination's value storage.
type child struct {
	labelValues []string

	count atomic.Uint64 // counter value (integer-valued)
	bits  atomic.Uint64 // gauge value as float64 bits

	hmu    sync.Mutex // histograms: buckets + sum under one lock
	bucket []uint64
	sum    float64
	total  uint64
}

func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, k, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, buckets: buckets,
		children: map[string]*child{}}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// OnScrape registers a collector invoked at the start of every WriteText
// and Snapshot — the hook for gauges computed from live state (semaphore
// occupancy, runs by status) without per-event bookkeeping.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (f *family) child(values ...string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			c.bucket = make([]uint64, len(f.buckets))
		}
		f.children[key] = c
		f.order = append(f.order, key)
		sort.Strings(f.order)
	}
	return c
}

// ---- counters ----

// Counter is a monotonically increasing integer-valued metric.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.count.Add(1) }

// Add adds n.
func (c Counter) Add(n uint64) { c.c.count.Add(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return c.c.count.Load() }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, kindCounter, nil, nil).child()}
}

// CounterVec is a counter family with a fixed label set.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for the given label values.
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.child(values...)} }

// CounterFunc registers a counter whose value is read at scrape time —
// the zero-hot-path-cost bridge from existing atomic counters (template
// memo hits, superblock builds, core resets) to the exposition.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil).fn = fn
}

// ---- gauges ----

// Gauge is a metric that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(name, help, kindGauge, nil, nil).child()}
}

// GaugeVec is a gauge family with a fixed label set.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v GaugeVec) With(values ...string) Gauge { return Gauge{v.f.child(values...)} }

// ---- histograms ----

// DefBuckets are the default latency buckets, in seconds: µs-scale cache
// hits through multi-minute sweeps.
var DefBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	f *family
	c *child
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	h.c.hmu.Lock()
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.c.bucket[i]++
		}
	}
	h.c.total++
	h.c.sum += v
	h.c.hmu.Unlock()
}

// HistogramVec is a histogram family with a fixed label set.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a histogram family with the given
// upper bounds (nil means DefBuckets; bounds must be sorted ascending) and
// label set. With no labels, With() returns its one histogram.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the child histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f, v.f.child(values...)}
}

// ---- exposition ----

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, children in sorted
// label order, histograms as cumulative _bucket/_sum/_count series.
// OnScrape collectors run first.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	families := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	var b strings.Builder
	for _, f := range families {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	f.mu.Lock()
	order := append([]string{}, f.order...)
	children := make([]*child, len(order))
	for i, key := range order {
		children[i] = f.children[key]
	}
	f.mu.Unlock()
	for _, c := range children {
		switch f.kind {
		case kindHistogram:
			c.hmu.Lock()
			bucket := append([]uint64{}, c.bucket...)
			sum, total := c.sum, c.total
			c.hmu.Unlock()
			for i, ub := range f.buckets {
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelValues, "le", formatValue(ub)), bucket[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.labelValues, "le", "+Inf"), total)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatValue(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), total)
		case kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""),
				formatValue(math.Float64frombits(c.bits.Load())))
		default:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.count.Load())
		}
	}
}

// Snapshot flattens the registry into series-name -> value: counters and
// gauges directly, histograms as their _count and _sum series. OnScrape
// collectors run first. The map is the programmatic twin of WriteText —
// one snapshot API for CLIs and scripts.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	families := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	out := map[string]float64{}
	for _, f := range families {
		if f.fn != nil {
			out[f.name] = f.fn()
			continue
		}
		f.mu.Lock()
		for _, key := range f.order {
			c := f.children[key]
			series := f.name + labelString(f.labels, c.labelValues, "", "")
			switch f.kind {
			case kindHistogram:
				c.hmu.Lock()
				out[f.name+"_count"+labelString(f.labels, c.labelValues, "", "")] = float64(c.total)
				out[f.name+"_sum"+labelString(f.labels, c.labelValues, "", "")] = c.sum
				c.hmu.Unlock()
			case kindGauge:
				out[series] = math.Float64frombits(c.bits.Load())
			default:
				out[series] = float64(c.count.Load())
			}
		}
		f.mu.Unlock()
	}
	return out
}

// labelString renders {k="v",...}, merging an extra label (histogram "le")
// when given; %q escapes quotes, backslashes and newlines in values. No
// labels renders as the empty string.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integers
// without a decimal point, everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
