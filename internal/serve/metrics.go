// Server metrics: every HTTP route is wrapped with a latency/status
// middleware, run lifecycle and cache/store effectiveness are counted at
// their existing transition points, and live state (runs by status,
// semaphore occupancy) is computed at scrape time via OnScrape collectors
// so no request-path bookkeeping is added for it. GET /metrics renders
// this server's registry followed by the process-wide obs.Default()
// registry (simulator counters: template memo, core pool, decode cache).
package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// runStatuses is the closed set of run states, so the sempe_runs gauge
// family always exposes every status (zeros included) and dashboards
// never see series flicker in and out.
var runStatuses = []string{"queued", "running", "done", "canceled", "error"}

type serverMetrics struct {
	reg *obs.Registry

	httpRequests obs.CounterVec   // route, method, code
	httpLatency  obs.HistogramVec // route

	runsCreated  obs.Counter
	runsFinished obs.CounterVec // status

	cacheHits obs.Counter
	storeHits obs.Counter
	computes  obs.Counter
}

// newServerMetrics registers the server's metric families and the
// scrape-time collectors reading live server state.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("sempe_http_requests_total",
			"HTTP requests served, by route pattern, method, and status code.",
			"route", "method", "code"),
		httpLatency: reg.HistogramVec("sempe_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.", nil, "route"),
		runsCreated: reg.Counter("sempe_runs_created_total",
			"Runs accepted by POST /runs (cached answers included)."),
		runsFinished: reg.CounterVec("sempe_runs_finished_total",
			"Runs reaching a terminal state, by status.", "status"),
		cacheHits: reg.Counter("sempe_serve_cache_hits_total",
			"Runs answered from the in-memory LRU result cache."),
		storeHits: reg.Counter("sempe_serve_store_hits_total",
			"LRU misses answered from the persistent on-disk store."),
		computes: reg.Counter("sempe_serve_computes_total",
			"Runs that paid for an engine execution (cache and store misses)."),
	}
	runsGauge := reg.GaugeVec("sempe_runs",
		"Tracked runs by current status.", "status")
	semOcc := reg.Gauge("sempe_sim_semaphore_occupancy",
		"Simulation slots currently in use (runs executing).")
	semCap := reg.Gauge("sempe_sim_semaphore_capacity",
		"Total simulation slots (Options.MaxConcurrentRuns).")
	reg.OnScrape(func() {
		semOcc.Set(float64(len(s.sem)))
		semCap.Set(float64(cap(s.sem)))
		counts := map[string]int{}
		s.mu.Lock()
		for _, rn := range s.runs {
			counts[rn.status]++
		}
		s.mu.Unlock()
		for _, st := range runStatuses {
			runsGauge.With(st).Set(float64(counts[st]))
		}
	})
	return m
}

// statusRecorder captures the status code a handler writes, for the
// request counter. An unwritten header counts as 200, matching net/http.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// route registers a handler wrapped with the request metrics middleware.
// The registered pattern is the route label, so cardinality is bounded by
// the route table, never by request paths.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.httpRequests.With(pattern, r.Method, strconv.Itoa(rec.code)).Inc()
		s.metrics.httpLatency.With(pattern).Observe(time.Since(t0).Seconds())
	})
}

// handleMetrics renders the Prometheus text exposition: this server's
// families, then the process-wide simulator counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
	obs.Default().WriteText(w)
}
