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
)

const shardPath = cluster.ShardPath

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req cluster.ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad shard body: %v", err)
		return
	}
	if req.Version != s.opts.ShardVersion {
		httpError(w, http.StatusConflict, "code version mismatch: worker %q, coordinator %q",
			s.opts.ShardVersion, req.Version)
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
	axes, err := sc.Sweep.Axes(req.Spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec for %s: %v", sc.Name, err)
		return
	}
	pts := scenario.Expand(axes)
	if req.Total != len(pts) {
		httpError(w, http.StatusConflict, "grid mismatch: worker expands %d points, coordinator %d", len(pts), req.Total)
		return
	}
	for _, idx := range req.Indices {
		if idx < 0 || idx >= len(pts) {
			httpError(w, http.StatusBadRequest, "point index %d out of range [0,%d)", idx, len(pts))
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
	rows := make([]json.RawMessage, len(req.Indices))
	err = scenario.Grid(len(req.Indices), req.Spec.Workers, func(j int) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		row, err := sc.Sweep.Run(req.Spec, pts[req.Indices[j]])
		if err != nil {
			return err
		}
		raw, err := json.Marshal(row)
		if err != nil {
			return err
		}
		rows[j] = raw
		return nil
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "shard failed: %v", err)
		return
	}
	s.metrics.shardPoints.Add(uint64(len(req.Indices)))
	writeJSON(w, http.StatusOK, cluster.ShardResponse{
		Rows:   rows,
		Millis: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
