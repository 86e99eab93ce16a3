// The cluster worker endpoint: POST /shards simulates an arbitrary subset
// of a scenario's expanded grid and returns one JSON row per point. It is
// mounted only in worker mode (Options.Worker / sempe-serve -worker) and
// shares the server's simulation semaphore with /runs, so a process that
// is both a worker and an interactive server stays bounded.
package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
)

const shardPath = cluster.ShardPath

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req cluster.ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad shard body: %v", err)
		return
	}
	if req.Version != store.CodeVersion {
		httpError(w, http.StatusConflict, "code version mismatch: worker %q, coordinator %q",
			store.CodeVersion, req.Version)
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
	plan, err := sc.Sweep.Plan(req.Spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec for %s: %v", sc.Name, err)
		return
	}
	total := scenario.GridSize(plan.Axes)
	if req.Total != total {
		httpError(w, http.StatusConflict, "grid mismatch: worker expands %d points, coordinator %d", total, req.Total)
		return
	}
	for _, idx := range req.Indices {
		if idx < 0 || idx >= total {
			httpError(w, http.StatusBadRequest, "point index %d out of range [0,%d)", idx, total)
			return
		}
	}

	s.metrics.shardRequests.Inc()

	// A coordinator that gave up (or died) frees the slot immediately.
	ctx := r.Context()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return
	}
	defer func() { <-s.sem }()

	start := time.Now()
	out, _, err := plan.RunPoints(req.Indices, req.Spec.Workers, scenario.RunOptions{Context: ctx})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "shard failed: %v", err)
		return
	}
	rows := make([]json.RawMessage, len(out))
	for k, row := range out {
		if rows[k], err = json.Marshal(row); err != nil {
			httpError(w, http.StatusInternalServerError, "shard failed: %v", err)
			return
		}
	}
	s.metrics.shardPoints.Add(uint64(len(req.Indices)))
	writeJSON(w, http.StatusOK, cluster.ShardResponse{
		Rows:   rows,
		Millis: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
