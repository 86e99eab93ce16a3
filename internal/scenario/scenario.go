// Package scenario is the declarative sweep engine behind every evaluation
// in this repository. A Scenario names a sweep and a renderer turning the
// sweep's typed rows into stats.Tables; scenarios register themselves into
// a central registry that cmd/sempe-bench and cmd/sempe-serve resolve by
// name.
//
// A Sweep's one contract is Plan: it parses and validates a spec once,
// rejecting every out-of-range parameter before any point runs, and
// returns the grid's axes plus the function computing one row per grid
// point. The engine — not the individual experiments — owns grid
// expansion (row-major over the axes, so result order is deterministic)
// and the one point loop, Plan.RunPoints, that every caller runs points
// through: the bounded worker pool, cancellation between points, per-point
// timing, spans and progress, and the guard that turns a panicking point
// into that point's error. Several scenarios may share one Sweep (Fig.
// 10a, Fig. 10b, and Table I are three renderings of the same
// microbenchmark grid); a RowCache lets one invocation simulate that grid
// once. Run is the one driver that plans a scenario and renders its
// Result: the on-disk result store (store.Store.Rows) plugs in behind the
// RowCache as RunOptions.Compute, the source of a plan's rows.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Spec parameterizes one run of a scenario. Quick selects the scenario's
// reduced grid (seconds instead of minutes); Params carries
// scenario-specific overrides as strings ("ws": "1,4,10"), the form they
// arrive in from flags and HTTP requests; Workers bounds the worker pool
// and never changes results, only wall time.
type Spec struct {
	Quick   bool              `json:"quick,omitempty"`
	Workers int               `json:"workers,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
}

// Key is the spec's canonical identity: quick plus the sorted params.
// Workers is deliberately excluded — every grid point simulates on an
// independent core, so results are bit-identical at any worker count, and
// caches keyed by (scenario, spec) must hit across worker settings.
func (s Spec) Key() string {
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "quick=%t", s.Quick)
	for _, k := range keys {
		fmt.Fprintf(&b, ";%s=%s", k, s.Params[k])
	}
	return b.String()
}

// Axis is one sweep dimension: a name and the display value of each
// position along it.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Point is one cell of an expanded grid: its index in row-major order and
// its coordinate along each axis.
type Point struct {
	Index  int
	Coords []int
}

// Labels returns the point's axis values, for error messages and timing
// reports.
func (p Point) Labels(axes []Axis) []string {
	out := make([]string, len(p.Coords))
	for i, c := range p.Coords {
		out[i] = axes[i].Values[c]
	}
	return out
}

// Expand enumerates the grid in row-major order (last axis fastest). Zero
// axes expand to a single point with no coordinates — a scenario with no
// sweep, like the Table II configuration echo. An axis with no values
// expands to an empty grid.
func Expand(axes []Axis) []Point {
	n := 1
	for _, a := range axes {
		n *= len(a.Values)
	}
	if n == 0 {
		return nil
	}
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		coords := make([]int, len(axes))
		rem := i
		for d := len(axes) - 1; d >= 0; d-- {
			coords[d] = rem % len(axes[d].Values)
			rem /= len(axes[d].Values)
		}
		pts[i] = Point{Index: i, Coords: coords}
	}
	return pts
}

// MaxPoints bounds a grid. The engine holds every point's coordinates and
// row at once, so a spec whose list parameters multiply past this would
// exhaust memory; a sweep's Plan rejects it (every registered sweep does,
// through experiments' planOf). The largest default grid has 40 points.
const MaxPoints = 1 << 16

// GridSize is the number of points the axes expand to, without expanding
// them. It stops multiplying once the product passes MaxPoints and returns
// that partial product, so it cannot overflow however many values the axes
// list; an axis with no values makes the grid empty.
func GridSize(axes []Axis) int {
	for _, a := range axes {
		if len(a.Values) == 0 {
			return 0
		}
	}
	n := 1
	for _, a := range axes {
		if n > MaxPoints {
			break
		}
		n *= len(a.Values)
	}
	return n
}

// Grid evaluates fn(i) for every i in [0, n), fanning the calls across a
// bounded pool of worker goroutines that take the indices in order. It is
// the module's one bounded fan-out: sweep points (Plan.RunPoints) and
// attack trials both run on it. The caller
// writes results into a pre-sized slice indexed by i, which keeps output
// order deterministic regardless of scheduling; the returned error is the
// lowest-indexed failure, so error reporting is deterministic too.
// workers <= 1 runs serially and stops at the first failure; in parallel
// every index runs.
func Grid(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep is a named grid shared by one or more scenarios. Plan parses and
// validates a spec once — an out-of-range parameter or a grid past
// MaxPoints fails here, before any point runs — and returns the grid it
// describes.
type Sweep struct {
	ID   string
	Plan func(Spec) (*Plan, error)

	// DecodeRow decodes one JSON-encoded row back into the sweep's typed
	// row — the inverse of json.Marshal on Point's result. The on-disk
	// store rehydrates persisted points through it; Register requires it.
	DecodeRow func(json.RawMessage) (any, error)
}

// Plan is one spec's sweep, parsed and validated: the grid's axes and the
// function computing the typed row at one grid point. Point receives the
// point's coordinates into Axes; it must be safe for concurrent calls
// (every evaluation point constructs an independent simulated core) and
// never parses the spec again.
type Plan struct {
	Axes  []Axis
	Point func(Point) (any, error)
}

// RunPoints is the engine's one point loop. It evaluates the plan at the
// given row-major grid indices, fanning them across at most workers
// goroutines, and returns one row per index in the order given plus the
// slowest point. Between points it checks opts.Context; every point gets
// a "point" span in opts.Journal and a call to opts.Progress (opts.Rows is
// not consulted). A point that fails becomes the error "point [labels]:
// …", and so does a point that panics ("point [labels]: panic: …"): the
// process lives on, and whatever the point held, such as a pooled core,
// is dropped instead of recycled. On error rows still holds every point
// that completed (nil elsewhere), so a caller can keep them.
func (p *Plan) RunPoints(indices []int, workers int, opts RunOptions) ([]any, *PointStat, error) {
	pts := Expand(p.Axes)
	rows := make([]any, len(indices))
	millis := make([]float64, len(indices))
	var mu sync.Mutex
	done := 0
	err := Grid(len(indices), workers, func(k int) error {
		if opts.Context != nil && opts.Context.Err() != nil {
			return opts.Context.Err()
		}
		pt := pts[indices[k]]
		var pointSpan obs.Span
		if opts.Journal != nil {
			pointSpan = opts.Journal.Begin("point", obs.Fields{
				"index": pt.Index, "labels": pt.Labels(p.Axes)})
		}
		t0 := time.Now()
		row, err := p.guarded(pt)
		millis[k] = float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			pointSpan.End(obs.Fields{"error": err.Error()})
			return fmt.Errorf("point %v: %w", pt.Labels(p.Axes), err)
		}
		pointSpan.End(nil)
		rows[k] = row
		if opts.Progress != nil {
			mu.Lock()
			done++
			opts.Progress(done, len(indices))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return rows, nil, err
	}
	var slowest *PointStat
	for k, ms := range millis {
		if slowest == nil || ms > slowest.Millis {
			slowest = &PointStat{Labels: pts[indices[k]].Labels(p.Axes), Millis: ms}
		}
	}
	return rows, slowest, nil
}

// guarded calls Point, turning a panic into the point's error.
func (p *Plan) guarded(pt Point) (row any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.Point(pt)
}

// Scenario is one registered evaluation: a sweep plus a renderer turning
// the sweep's rows into tables.
type Scenario struct {
	Name        string
	Description string
	Sweep       *Sweep
	Render      func(Spec, []any) []*stats.Table
}

// PointStat reports one grid point's wall time.
type PointStat struct {
	Labels []string `json:"labels,omitempty"`
	Millis float64  `json:"millis"`
}

// Result is a completed scenario run: the spec it ran under, the expanded
// axes, the rendered tables, and timing. Rows carries the sweep's typed
// per-point rows for Go callers; it is not serialized (the tables are the
// structured wire form).
type Result struct {
	Scenario      string         `json:"scenario"`
	Spec          Spec           `json:"spec"`
	Axes          []Axis         `json:"axes,omitempty"`
	Points        int            `json:"points"`
	Tables        []*stats.Table `json:"tables"`
	ElapsedMillis float64        `json:"elapsed_ms,omitempty"`
	Slowest       *PointStat     `json:"slowest_point,omitempty"`
	Rows          []any          `json:"-"`
}

// Stable returns a copy of the result with every nondeterministic field
// zeroed: wall times, the slowest-point report, the worker count (which
// never affects rows), and the in-memory Rows. Two runs of the same
// (scenario, spec) — serial, parallel, or served from a result store —
// encode their stable forms to byte-identical JSON; cmd/sempe-bench
// -stable (with or without a store), the golden tests, and the CI smoke
// jobs all diff stable encodings.
func (r *Result) Stable() *Result {
	out := *r
	out.ElapsedMillis = 0
	out.Slowest = nil
	out.Spec.Workers = 0
	out.Rows = nil
	return &out
}

// RunOptions tunes one engine invocation. Progress, when set, is called
// after every completed grid point with (done, total); it may be called
// from multiple goroutines but never concurrently. Rows, when set,
// memoizes sweep rows by (sweep, spec) so scenarios sharing a sweep — or
// repeated runs of the same spec — simulate the grid once; a run that
// joins another run's in-flight computation gets that computation's latest
// (done, total) on joining and every update after it. Context, when
// set, cancels the sweep between grid points: in-flight points finish,
// remaining points are skipped, and the run returns the context's error.
// Journal, when set, receives a per-sweep span plus one span per grid
// point (labels and wall time); a nil Journal records nothing and costs
// nothing — the observability differential test pins that instrumented
// and uninstrumented runs are byte-identical. Compute, when set, fills the
// plan's rows in place of Plan.RunPoints, behind Rows, and is handed these
// options so it journals, reports progress and stops as the point loop
// would; store.Store.Rows plugs in here to serve rows from disk.
type RunOptions struct {
	Progress func(done, total int)
	Rows     *RowCache
	Context  context.Context
	Journal  *obs.Journal
	Compute  func(sc *Scenario, spec Spec, plan *Plan, opts RunOptions) ([]any, error)
}

// Run plans the scenario's sweep under spec once, fills every grid point's
// row (from opts.Rows, through opts.Compute, or through the point loop),
// and renders its tables.
func Run(sc *Scenario, spec Spec, opts RunOptions) (*Result, error) {
	plan, err := sc.Sweep.Plan(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	all := make([]int, GridSize(plan.Axes))
	for i := range all {
		all[i] = i
	}
	start := time.Now()
	var sweepSpan obs.Span
	if opts.Journal != nil {
		sweepSpan = opts.Journal.Begin("sweep", obs.Fields{
			"scenario": sc.Name, "sweep": sc.Sweep.ID, "points": len(all)})
	}
	compute := func(opts RunOptions) ([]any, *PointStat, error) {
		if opts.Compute != nil {
			rows, err := opts.Compute(sc, spec, plan, opts)
			return rows, nil, err
		}
		return plan.RunPoints(all, spec.Workers, opts)
	}
	var rows []any
	var slowest *PointStat
	if opts.Rows != nil {
		rows, slowest, err = opts.Rows.rows(sc.Sweep.ID+"|"+spec.Key(), opts, compute)
		if err == nil && opts.Progress != nil {
			opts.Progress(len(all), len(all))
		}
	} else {
		rows, slowest, err = compute(opts)
	}
	if err != nil {
		sweepSpan.End(obs.Fields{"error": err.Error()})
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	sweepSpan.End(nil)
	return &Result{
		Scenario:      sc.Name,
		Spec:          spec,
		Axes:          plan.Axes,
		Points:        len(all),
		Tables:        sc.Render(spec, rows),
		ElapsedMillis: float64(time.Since(start)) / float64(time.Millisecond),
		Slowest:       slowest,
		Rows:          rows,
	}, nil
}

// RowCache memoizes sweep rows (and the slowest-point timing from the
// compute that ran them) by (sweep ID, spec key) with single-flight
// semantics: concurrent requests for the same key run the sweep once and
// share the result, and every one of them sees the computation's progress.
// It keeps the rowCacheEntries most recently completed keys, dropping the
// oldest first, so a long-lived process that sees many distinct specs
// holds a bounded number of grids.
type RowCache struct {
	mu   sync.Mutex
	m    map[string]*rowEntry
	done []string // completed keys, oldest first
}

// rowCacheEntries bounds a RowCache's completed entries.
const rowCacheEntries = 64

type rowEntry struct {
	once    sync.Once
	rows    []any
	slowest *PointStat
	err     error

	// mu orders the progress of the in-flight computation: the latest
	// (done, total), and the Progress of every caller waiting on it, each
	// called one at a time. computed ends the forwarding.
	mu          sync.Mutex
	done, total int
	progress    []func(done, total int)
	computed    bool
}

// NewRowCache returns an empty cache.
func NewRowCache() *RowCache { return &RowCache{m: map[string]*rowEntry{}} }

// rows returns key's rows, running compute under opts once per key. The
// computation reports its progress to every caller that joins it.
func (c *RowCache) rows(key string, opts RunOptions, compute func(RunOptions) ([]any, *PointStat, error)) ([]any, *PointStat, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &rowEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.join(opts.Progress)
	e.once.Do(func() {
		opts.Progress = e.report
		e.rows, e.slowest, e.err = compute(opts)
		e.mu.Lock()
		e.computed, e.progress = true, nil
		e.mu.Unlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		if e.err != nil {
			// Failures — a canceled context included — must not poison
			// the key: drop the entry so a later identical request
			// recomputes.
			delete(c.m, key)
			return
		}
		c.done = append(c.done, key)
		if len(c.done) > rowCacheEntries {
			delete(c.m, c.done[0])
			c.done = c.done[1:]
		}
	})
	return e.rows, e.slowest, e.err
}

// join adds progress to the callers the entry's computation reports to,
// handing it the latest (done, total) if the computation has reported one.
// A finished computation takes no callers: they read its rows at once.
func (e *rowEntry) join(progress func(done, total int)) {
	if progress == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.computed {
		return
	}
	e.progress = append(e.progress, progress)
	if e.total > 0 {
		progress(e.done, e.total)
	}
}

// report is the computation's Progress: it records (done, total) and
// forwards it to every joined caller.
func (e *rowEntry) report(done, total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done, e.total = done, total
	for _, p := range e.progress {
		p(done, total)
	}
}
