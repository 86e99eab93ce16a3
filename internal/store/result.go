// Typed entry kinds on top of the raw byte store: whole scenario results
// (the sempe-serve cache's persistent tier) and single sweep rows (the unit
// sempe-bench -store re-uses: a sweep reads back every point it has already
// simulated, however the rest of its grid is filled).
package store

import (
	"encoding/json"
	"strconv"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// ResultKey addresses a completed scenario run. Spec.Key excludes the
// worker count, so results hit across parallelism settings.
func ResultKey(name string, spec scenario.Spec) string {
	return "result|" + name + "|" + spec.Key()
}

// rowKey addresses one grid point of a sweep under a spec key (the value
// of scenario.Spec.Key). It is keyed by sweep ID, not scenario name, so
// scenarios sharing a sweep (fig10a, fig10b, table1) share stored rows.
func rowKey(sweepID, specKey string, index int) string {
	return "row|" + sweepID + "|" + specKey + "|" + strconv.Itoa(index)
}

// GetResult rehydrates a stored scenario result. The result's Rows are
// not persisted (they are the in-memory typed form); everything a client
// of sempe-serve consumes — spec, axes, tables, timing — survives.
func (s *Store) GetResult(name string, spec scenario.Spec) (*scenario.Result, bool) {
	raw, ok := s.Get(ResultKey(name, spec))
	if !ok {
		return nil, false
	}
	var res scenario.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// PutResult persists a completed scenario result.
func (s *Store) PutResult(res *scenario.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return s.Put(ResultKey(res.Scenario, res.Spec), raw)
}

// Rows is a store-backed scenario.RunOptions.Compute: it fills the rows of
// the plan that scenario.Run made for sc under spec. Every point whose row
// the store holds is decoded from it; the rest run in-process through the
// engine's point loop, and each row is persisted as its point completes,
// so a failed or canceled sweep keeps every row it finished (a nil row
// included). Rows journals a store_scan event into opts.Journal and calls
// opts.Progress as stored and computed points land, ending at (total,
// total) when every row is filled.
func (s *Store) Rows(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, opts scenario.RunOptions) ([]any, error) {
	sw, specKey := sc.Sweep, spec.Key()
	rows := make([]any, scenario.GridSize(plan.Axes))
	var missing []int
	for i := range rows {
		if raw, ok := s.Get(rowKey(sw.ID, specKey, i)); ok {
			if row, err := sw.DecodeRow(raw); err == nil {
				rows[i] = row
				continue
			}
		}
		missing = append(missing, i)
	}
	stored := len(rows) - len(missing)
	opts.Journal.Event("store_scan", obs.Fields{"points": len(rows), "store_points": stored})
	progress := func(done, _ int) {
		if opts.Progress != nil {
			opts.Progress(stored+done, len(rows))
		}
	}
	progress(0, 0)

	persisting := &scenario.Plan{Axes: plan.Axes, Point: func(pt scenario.Point) (any, error) {
		row, err := plan.Point(pt)
		if err != nil {
			return nil, err
		}
		rows[pt.Index] = row
		// Best-effort: a full disk never fails a sweep whose rows are
		// already in memory.
		if raw, err := json.Marshal(row); err == nil {
			s.Put(rowKey(sw.ID, specKey, pt.Index), raw)
		}
		return row, nil
	}}
	_, _, err := persisting.RunPoints(missing, spec.Workers, scenario.RunOptions{
		Context: opts.Context, Journal: opts.Journal, Progress: progress})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
