// Package serve implements the sempe-serve evaluation service: the
// scenario registry over HTTP. It exposes the registered scenarios, runs
// parameterized sweeps with bounded concurrency, reports per-run progress,
// and memoizes completed results in an LRU cache keyed by (scenario, spec)
// so repeated queries never re-simulate. With a Store configured the cache
// gains a persistent tier: completed results are written to disk and a
// cache miss falls through to it, so a restarted server answers warm.
//
//	GET  /scenarios        -> registered scenarios with their axes
//	POST /runs             -> start (or instantly answer from cache) a run
//	GET  /runs             -> all runs, newest first
//	GET  /runs/{id}        -> one run: status, progress, and result when done
//	GET  /runs/{id}/events -> the run's ordered span journal
//	POST /runs/{id}/cancel -> stop an in-flight run between grid points
//	GET  /metrics          -> Prometheus text exposition (HTTP, runs, caches, simulator counters)
//	GET  /healthz          -> liveness
//	/debug/pprof/*         -> pprof profiles (opt-in: Options.EnablePprof)
//
// POST /runs accepts {"scenario": "fig10a", "spec": {"quick": true,
// "workers": 4, "params": {"kinds": "fibonacci"}}, "wait": true}; with
// "wait" the response carries the finished run, otherwise 202 Accepted
// returns immediately and the run is polled via its id.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Options tunes the server.
type Options struct {
	// MaxWorkers caps a run's requested worker pool; 0 means NumCPU.
	MaxWorkers int
	// MaxConcurrentRuns bounds how many sweeps simulate at once; further
	// runs queue. 0 means 2.
	MaxConcurrentRuns int
	// Store, when set, persists completed results on disk and serves LRU
	// misses from it — warm restarts, shared result directories.
	Store *store.Store
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in,
	// because profiles expose internals and cost CPU while sampling.
	EnablePprof bool
	// Logger receives structured run-lifecycle logs; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Server is the evaluation service. Create with New, mount via Handler.
type Server struct {
	opts    Options
	sem     chan struct{}
	metrics *serverMetrics
	log     *slog.Logger

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // creation order, for GET /runs
	nextID int
	cache  *lruCache
	rows   *scenario.RowCache
}

// run is one tracked sweep execution.
type run struct {
	id       string
	scenario string
	spec     scenario.Spec
	status   string // "queued" | "running" | "done" | "canceled" | "error"
	cached   bool
	created  time.Time
	done     int
	total    int
	errMsg   string
	result   *scenario.Result
	finished chan struct{}
	cancel   context.CancelFunc
	// journal is the run's event stream: lifecycle events and the
	// engine's sweep and point spans.
	journal *obs.Journal
}

// New builds a server.
func New(opts Options) *Server {
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = runtime.NumCPU()
	}
	if opts.MaxConcurrentRuns <= 0 {
		opts.MaxConcurrentRuns = 2
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	s := &Server{
		opts:  opts,
		sem:   make(chan struct{}, opts.MaxConcurrentRuns),
		log:   opts.Logger,
		runs:  map[string]*run{},
		cache: newLRU(lruEntries),
		rows:  scenario.NewRowCache(),
	}
	s.metrics = newServerMetrics(s)
	return s
}

// Handler returns the service's HTTP handler. Every route is wrapped with
// the request-metrics middleware; /debug/pprof/ is mounted only when
// Options.EnablePprof is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "GET /scenarios", s.handleScenarios)
	s.route(mux, "POST /runs", s.handleCreateRun)
	s.route(mux, "GET /runs", s.handleListRuns)
	s.route(mux, "GET /runs/{id}", s.handleGetRun)
	s.route(mux, "GET /runs/{id}/events", s.handleGetRunEvents)
	s.route(mux, "POST /runs/{id}/cancel", s.handleCancelRun)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// scenarioInfo is one GET /scenarios entry.
type scenarioInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Axes        []scenario.Axis `json:"axes,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, sc := range scenario.Scenarios() {
		info := scenarioInfo{Name: sc.Name, Description: sc.Description}
		// Default-spec axes; scenarios whose axes depend on params still
		// list their default grid.
		if plan, err := sc.Sweep.Plan(scenario.Spec{}); err == nil {
			info.Axes = plan.Axes
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// createRequest is the POST /runs body.
type createRequest struct {
	Scenario string        `json:"scenario"`
	Spec     scenario.Spec `json:"spec"`
	Wait     bool          `json:"wait,omitempty"`
}

// runView is the wire form of a run. AgeSeconds is time since creation —
// GET /runs lists every run with its status and age at a glance, so no
// one has to guess run IDs.
type runView struct {
	ID         string           `json:"id"`
	Scenario   string           `json:"scenario"`
	Spec       scenario.Spec    `json:"spec"`
	Status     string           `json:"status"`
	Cached     bool             `json:"cached"`
	AgeSeconds float64          `json:"age_seconds"`
	Progress   progressView     `json:"progress"`
	Error      string           `json:"error,omitempty"`
	Result     *scenario.Result `json:"result,omitempty"`
}

type progressView struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sc, ok := scenario.Lookup(req.Scenario)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scenario %q; registered: %v", req.Scenario, scenario.Names())
		return
	}
	if req.Spec.Workers <= 0 || req.Spec.Workers > s.opts.MaxWorkers {
		req.Spec.Workers = s.opts.MaxWorkers
	}
	// Validate the spec before tracking a run: a bad parameter is the
	// caller's error, not a failed run.
	if _, err := sc.Sweep.Plan(req.Spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec for %s: %v", sc.Name, err)
		return
	}

	key := cacheKey(sc.Name, req.Spec)
	ctx, cancel := context.WithCancel(context.Background())
	s.metrics.runsCreated.Inc()
	s.mu.Lock()
	s.nextID++
	rn := &run{
		id:       fmt.Sprintf("run-%d", s.nextID),
		scenario: sc.Name,
		spec:     req.Spec,
		status:   "queued", // published before the cache/store lookup settles
		created:  time.Now(),
		finished: make(chan struct{}),
		cancel:   cancel,
		journal:  obs.NewJournal(),
	}
	rn.journal.Event("created", obs.Fields{"scenario": sc.Name, "spec": req.Spec.Key()})
	s.runs[rn.id] = rn
	s.order = append(s.order, rn.id)
	s.pruneRuns()
	res, hit := s.cache.get(key)
	if hit {
		s.metrics.cacheHits.Inc()
		rn.journal.Event("cache_hit", nil)
		s.finishCached(w, rn, res)
		return
	}
	s.mu.Unlock()
	if s.opts.Store != nil {
		// LRU miss: fall through to the persistent store (a result from a
		// previous process lifetime) before paying for a simulation. The
		// disk read happens outside s.mu so progress polls and other runs
		// never stall behind I/O; two identical concurrent requests may
		// both read the entry, which is a benign duplicate.
		if stored, ok := s.opts.Store.GetResult(sc.Name, req.Spec); ok {
			s.metrics.storeHits.Inc()
			rn.journal.Event("store_hit", nil)
			s.mu.Lock()
			s.cache.put(key, stored)
			s.finishCached(w, rn, stored)
			return
		}
	}
	go s.execute(ctx, sc, rn, key)

	if req.Wait {
		<-rn.finished
	}
	s.mu.Lock()
	view := rn.view()
	s.mu.Unlock()
	status := http.StatusAccepted
	if view.Status == "done" || view.Status == "error" {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

// finishCached completes a run from an already-available result and
// writes the response. The caller holds s.mu; finishCached releases it.
func (s *Server) finishCached(w http.ResponseWriter, rn *run, res *scenario.Result) {
	rn.cancel()
	rn.status = "done"
	rn.cached = true
	rn.result = res
	rn.done, rn.total = res.Points, res.Points
	close(rn.finished)
	view := rn.view()
	s.mu.Unlock()
	s.metrics.runsFinished.With("done").Inc()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) execute(ctx context.Context, sc *scenario.Scenario, rn *run, key string) {
	defer rn.cancel() // release the context's resources however we exit

	// A run canceled while queued never occupies a simulation slot.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		rn.status = "canceled"
		s.mu.Unlock()
		s.finishRun(rn, "canceled", nil)
		return
	}

	s.mu.Lock()
	rn.status = "running"
	s.mu.Unlock()
	s.metrics.computes.Inc()
	rn.journal.Event("running", nil)
	s.log.Info("run started", "run", rn.id, "scenario", rn.scenario, "spec", rn.spec.Key())

	// Speculative-window accounting snapshot: the delta across this run's
	// compute is journaled as a spec_summary event. The counters are
	// process-wide, so on a server computing runs concurrently the delta can
	// include overlapping runs' work — it is a profile of the machine while
	// this run computed, not an exact attribution.
	specBefore := pipeline.GlobalSpecCounters()

	opts := scenario.RunOptions{
		Rows:    s.rows,
		Context: ctx,
		Journal: rn.journal,
		Progress: func(done, total int) {
			s.mu.Lock()
			rn.done, rn.total = done, total
			s.mu.Unlock()
		},
	}
	var res *scenario.Result
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		res, err = scenario.Run(sc, rn.spec, opts)
		// Two concurrent runs of the same spec share one single-flight
		// RowCache compute, which runs under whichever context got there
		// first. If THAT run was canceled, this one sees context.Canceled
		// without its own client having asked for it — the failed entry
		// has been dropped from the cache, so recompute under our own
		// still-live context instead of reporting a spurious error.
		if err == nil || ctx.Err() != nil || !errors.Is(err, context.Canceled) {
			break
		}
	}

	if err == nil && s.opts.Store != nil {
		// Best-effort: a failed disk write must not fail a computed run.
		s.opts.Store.PutResult(res)
	}

	s.mu.Lock()
	switch {
	case ctx.Err() != nil && err != nil:
		rn.status = "canceled"
	case err != nil:
		rn.status = "error"
		rn.errMsg = err.Error()
	default:
		rn.status = "done"
		rn.result = res
		rn.done, rn.total = res.Points, res.Points
		s.cache.put(key, res)
	}
	status := rn.status
	s.mu.Unlock()
	<-s.sem
	specAfter := pipeline.GlobalSpecCounters()
	rn.journal.Event("spec_summary", obs.Fields{
		"wrong_path_fetches":      specAfter.WrongPathFetches - specBefore.WrongPathFetches,
		"squashed_uops":           specAfter.SquashedUops - specBefore.SquashedUops,
		"flushes_mispredict":      specAfter.FlushMispredicts - specBefore.FlushMispredicts,
		"flushes_secure_redirect": specAfter.FlushSecRedirects - specBefore.FlushSecRedirects,
		"flushes_overflow":        specAfter.FlushOverflows - specBefore.FlushOverflows,
	})
	s.finishRun(rn, status, err)
}

// finishRun is the terminal step of every run execute ends, computed or
// canceled while queued: it counts the run as finished, journals its
// terminal status, wakes its waiters and logs the outcome. err is the
// run's error when status is "error".
func (s *Server) finishRun(rn *run, status string, err error) {
	s.metrics.runsFinished.With(status).Inc()
	rn.journal.Event(status, nil)
	if status == "error" {
		s.log.Warn("run failed", "run", rn.id, "scenario", rn.scenario, "reason", err.Error())
	} else {
		s.log.Info("run finished", "run", rn.id, "scenario", rn.scenario, "status", status)
	}
	// Wake waiters last: a wait:true client must see the run's slot
	// released, its finished count, its terminal journal event and its log
	// line.
	close(rn.finished)
}

// handleCancelRun stops an in-flight run between grid points. Cancelling
// a finished (or already canceled) run is a no-op; the response always
// carries the run's current view, so cancellation is idempotent.
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rn, ok := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	rn.cancel()
	s.mu.Lock()
	view := rn.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rn, ok := s.runs[r.PathValue("id")]
	var view runView
	if ok {
		view = rn.view()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// eventsView is the GET /runs/{id}/events wire form: the run's journal so
// far, ordered by sequence number. Polling an in-flight run streams the
// journal incrementally — each poll returns every event appended so far.
type eventsView struct {
	ID       string      `json:"id"`
	Scenario string      `json:"scenario"`
	Status   string      `json:"status"`
	Count    int         `json:"count"`
	Events   []obs.Event `json:"events"`
}

func (s *Server) handleGetRunEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rn, ok := s.runs[r.PathValue("id")]
	var view eventsView
	if ok {
		view = eventsView{ID: rn.id, Scenario: rn.scenario, Status: rn.status}
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	// The journal has its own lock; events are read outside s.mu so a
	// large journal never stalls run polls.
	view.Events = rn.journal.Events()
	view.Count = len(view.Events)
	writeJSON(w, http.StatusOK, view)
}

// maxTrackedRuns bounds the run records (and their pinned results) kept
// for GET /runs.
const maxTrackedRuns = 256

// pruneRuns drops the oldest finished run records beyond maxTrackedRuns
// so a long-lived server's memory stays bounded (queued and running runs
// are never dropped). The caller holds s.mu.
func (s *Server) pruneRuns() {
	excess := len(s.order) - maxTrackedRuns
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		rn := s.runs[id]
		if excess > 0 && (rn.status == "done" || rn.status == "error" || rn.status == "canceled") {
			delete(s.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	// s.order is creation order; report newest first.
	views := make([]runView, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		v := s.runs[s.order[i]].view()
		v.Result = nil // list view stays small; fetch a run by id for the tables
		views = append(views, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

// view snapshots the run; the caller holds s.mu.
func (rn *run) view() runView {
	return runView{
		ID:         rn.id,
		Scenario:   rn.scenario,
		Spec:       rn.spec,
		Status:     rn.status,
		Cached:     rn.cached,
		AgeSeconds: time.Since(rn.created).Seconds(),
		Progress:   progressView{Done: rn.done, Total: rn.total},
		Error:      rn.errMsg,
		Result:     rn.result,
	}
}

func cacheKey(name string, spec scenario.Spec) string {
	return name + "|" + spec.Key()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lruEntries is the result cache's capacity in completed runs.
const lruEntries = 64

// lruCache is a small LRU of completed results keyed by (scenario, spec).
type lruCache struct {
	cap   int
	ll    *list.List // front = most recent; values are *lruEntry
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	res *scenario.Result
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached result and marks it most recently used. Callers
// hold the server mutex.
func (c *lruCache) get(key string) (*scenario.Result, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lruCache) put(key string, res *scenario.Result) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}
