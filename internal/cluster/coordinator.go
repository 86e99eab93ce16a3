// Package cluster distributes scenario sweeps across a fleet of worker
// processes (sempe-serve -worker). The coordinator is a row source for
// the scenario engine (scenario.RunOptions.Compute): given the plan that
// scenario.Run made, it serves every point it can from the on-disk store,
// chunks the rest into shards, dispatches them over HTTP, and merges rows
// back in row-major order — so the rendered result is bit-identical to a
// serial engine run. Worker failure is survived by bounded retry: a failed
// shard is re-queued for the surviving workers, and a worker that keeps
// failing is dropped from the fleet.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// ErrNoReachableWorkers marks a fleet in which the startup health probe
// found no live worker at all — a configuration or deployment problem,
// reported before any shard is built rather than discovered through a
// storm of mid-sweep retries.
var ErrNoReachableWorkers = errors.New("cluster: no worker reachable at startup")

// Options configures a coordinator.
type Options struct {
	// Workers are worker base URLs ("http://host:8080"). Empty means
	// compute locally in-process — the sweep still flows through the store,
	// which is how a warm store is built or verified without a fleet.
	Workers []string
	// ShardSize is the number of grid points per dispatched shard; 0
	// means 8. Smaller shards spread better and lose less work to a dying
	// worker; larger shards amortize HTTP overhead.
	ShardSize int
	// MaxAttempts bounds how many times one shard is dispatched before
	// the sweep fails; 0 means 3.
	MaxAttempts int
	// Timeout bounds one shard request; 0 means 10 minutes.
	Timeout time.Duration
	// Store, when set, serves already-computed points without dispatching
	// and persists every newly computed row.
	Store *store.Store
	// Logger receives structured dispatch logs (unreachable workers, shard
	// retries, dropped workers — each with the worker address and reason).
	// Nil means slog.Default().
	Logger *slog.Logger
}

// Report describes where a distributed run's points came from and what
// the dispatcher had to survive.
type Report struct {
	Points      int `json:"points"`
	StorePoints int `json:"store_points"` // served from the on-disk store
	Shards      int `json:"shards"`       // shards built for the missing points
	Dispatched  int `json:"dispatched"`   // shard POSTs attempted
	Retries     int `json:"retries"`      // failed POSTs that were re-queued
	// Unreachable lists workers the startup health probe dropped before
	// the first dispatch; DroppedWorkers lists workers dropped mid-sweep
	// after repeated shard failures.
	Unreachable    []string `json:"unreachable_workers,omitempty"`
	DroppedWorkers []string `json:"dropped_workers,omitempty"`
	// ShardStats records, per shard, the wall-clock duration of the
	// successful dispatch, the worker that completed it, and how many
	// attempts it took — slow or flaky workers are identifiable post-run.
	ShardStats []ShardStat `json:"shard_stats,omitempty"`
	// WorkerStats aggregates per-worker health and throughput.
	WorkerStats []WorkerStat `json:"worker_stats,omitempty"`
}

// ShardStat is one shard's dispatch provenance.
type ShardStat struct {
	Shard    int     `json:"shard"`
	Indices  string  `json:"indices"` // "[lo..hi:n]" grid-point label
	Points   int     `json:"points"`
	Worker   string  `json:"worker,omitempty"` // worker that completed it ("" = local/store)
	Attempts int     `json:"attempts"`
	Millis   float64 `json:"millis"` // wall clock of the successful dispatch
}

// WorkerStat is one worker's health and throughput over the sweep.
type WorkerStat struct {
	URL          string  `json:"url"`
	Healthy      bool    `json:"healthy"`           // startup probe outcome
	Dropped      bool    `json:"dropped,omitempty"` // dropped mid-sweep
	Shards       int     `json:"shards"`            // shards completed
	Points       int     `json:"points"`
	Failures     int     `json:"failures"` // failed dispatches charged to it
	BusyMillis   float64 `json:"busy_millis"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// Coordinator shards sweeps across workers. It holds only its options, so
// one coordinator serves any number of concurrent Rows calls (the serve
// front end shares one across its runs).
type Coordinator struct {
	opts Options
	log  *slog.Logger
}

// sharedClient is the process-wide shard-dispatch and health-probe client.
// Every coordinator uses it, so repeated shard POSTs to the same worker
// ride one keep-alive connection pool instead of re-dialing per
// coordinator or per sweep. The transport mirrors http.DefaultTransport's
// dial behavior with keep-alives pinned on and enough idle connections per
// worker to cover parallel dispatch.
var sharedClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:   true,
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// New builds a coordinator, applying option defaults.
func New(opts Options) *Coordinator {
	if opts.ShardSize <= 0 {
		opts.ShardSize = 8
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Minute
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Coordinator{opts: opts, log: logger}
}

// Rows fills the rows of the plan that scenario.Run made for sc under
// spec: store first, then the worker fleet (or in-process when no workers
// are configured), persisting every newly computed row. It has the shape
// of scenario.RunOptions.Compute plus a Report of point provenance, which
// is never nil. It journals into opts.Journal (a cluster_sweep span around
// probe, dispatch, retry and merge spans) and calls opts.Progress as store
// hits, in-process points and merged shards land, ending at (total, total)
// when every row is filled.
func (c *Coordinator) Rows(sc *scenario.Scenario, spec scenario.Spec, plan *scenario.Plan, opts scenario.RunOptions) ([]any, *Report, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	sw := sc.Sweep
	total := scenario.GridSize(plan.Axes)
	specKey := spec.Key()
	rep := &Report{Points: total}
	j := opts.Journal
	sweepSpan := j.Begin("cluster_sweep", obs.Fields{
		"scenario": sc.Name, "points": total, "workers": len(c.opts.Workers)})

	var mu sync.Mutex
	done := 0
	landed := func(n int) {
		if opts.Progress != nil {
			mu.Lock()
			done += n
			opts.Progress(done, total)
			mu.Unlock()
		}
	}

	rows := make([]any, total)
	var missing []int
	for i := range rows {
		if c.opts.Store != nil {
			if raw, ok := c.opts.Store.GetRow(sw.ID, specKey, i); ok {
				if row, err := sw.DecodeRow(raw); err == nil {
					rows[i] = row
					rep.StorePoints++
					continue
				}
			}
		}
		missing = append(missing, i)
	}
	if c.opts.Store != nil {
		j.Event("store_scan", obs.Fields{"points": total, "store_points": rep.StorePoints})
	}
	landed(rep.StorePoints)

	var err error
	switch {
	case len(missing) == 0:
	case len(c.opts.Workers) == 0:
		// In-process: the engine's point loop computes the missing points,
		// and each row is persisted as its point completes, so a failed or
		// canceled sweep keeps every row it finished (a nil row included).
		localSpan := j.Begin("local", obs.Fields{"points": len(missing)})
		persisting := &scenario.Plan{Axes: plan.Axes, Point: func(pt scenario.Point) (any, error) {
			row, err := plan.Point(pt)
			if err == nil {
				rows[pt.Index] = row
				c.putRow(sw.ID, specKey, pt.Index, row)
			}
			return row, err
		}}
		_, _, err = persisting.RunPoints(missing, spec.Workers, scenario.RunOptions{
			Context: ctx, Journal: j, Progress: func(int, int) { landed(1) }})
		localSpan.End(errFields(err))
	default:
		err = c.dispatch(ctx, sc.Name, sw, spec, specKey, total, missing, rows, rep, j, landed)
	}
	sweepSpan.End(errFields(err))
	if err != nil {
		return nil, rep, err
	}
	return rows, rep, nil
}

// errFields is a span's end fields: the error, if there was one.
func errFields(err error) obs.Fields {
	if err == nil {
		return nil
	}
	return obs.Fields{"error": err.Error()}
}

// putRow persists one computed row, best-effort: a full disk never fails
// a sweep whose rows are already in memory.
func (c *Coordinator) putRow(sweepID, specKey string, i int, row any) {
	if c.opts.Store == nil {
		return
	}
	if raw, err := json.Marshal(row); err == nil {
		c.opts.Store.PutRow(sweepID, specKey, i, raw)
	}
}

// task is one shard's dispatch state.
type task struct {
	shard    int // position in the shard list, for stats and spans
	indices  []int
	attempts int
}

// workerFailLimit drops a worker from the fleet after this many consecutive
// request failures.
const workerFailLimit = 2

// probeTimeout bounds one startup health probe; liveness answers in
// milliseconds, so anything slower is as good as down.
const probeTimeout = 10 * time.Second

// probeWorkers GETs every worker's /healthz concurrently (one scenario.Grid
// worker per address) before the first dispatch. Unreachable workers are
// dropped from the fleet up front and recorded in the report — a dead
// address would otherwise surface as puzzling mid-sweep retries — and an
// entirely unreachable fleet fails fast with ErrNoReachableWorkers.
func (c *Coordinator) probeWorkers(ctx context.Context, rep *Report, j *obs.Journal) ([]string, error) {
	probeSpan := j.Begin("probe", obs.Fields{"workers": len(c.opts.Workers)})
	timeout := min(probeTimeout, c.opts.Timeout)
	errs := make([]error, len(c.opts.Workers))
	scenario.Grid(len(errs), len(errs), func(i int) error {
		errs[i] = probe(ctx, c.opts.Workers[i], timeout)
		return nil
	})

	var alive []string
	for i, url := range c.opts.Workers {
		if errs[i] == nil {
			alive = append(alive, url)
			continue
		}
		rep.Unreachable = append(rep.Unreachable, url)
		reason := errs[i].Error()
		c.log.Warn("cluster: worker unreachable at startup, dropped from fleet",
			"worker", url, "reason", reason)
		j.Event("worker_unreachable", obs.Fields{"worker": url, "reason": reason})
	}
	probeSpan.End(obs.Fields{"alive": len(alive)})
	if len(alive) == 0 {
		return nil, fmt.Errorf("%w: %d workers probed, first failure: %v",
			ErrNoReachableWorkers, len(c.opts.Workers), errs[0])
	}
	return alive, nil
}

// probe GETs one worker's /healthz within timeout; nil means it answered
// 200.
func probe(ctx context.Context, url string, timeout time.Duration) error {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		strings.TrimRight(url, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := sharedClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health probe: %s", resp.Status)
	}
	return nil
}

// dispatch fans the missing points across the worker fleet (the workers
// the startup health probe found alive).
func (c *Coordinator) dispatch(ctx context.Context, name string, sw *scenario.Sweep, spec scenario.Spec, specKey string, total int, missing []int, rows []any, rep *Report, j *obs.Journal, landed func(int)) error {
	wstats := make(map[string]*WorkerStat, len(c.opts.Workers))
	for _, url := range c.opts.Workers {
		wstats[url] = &WorkerStat{URL: url}
	}
	workers, err := c.probeWorkers(ctx, rep, j)
	if err != nil {
		return err
	}
	for _, url := range workers {
		wstats[url].Healthy = true
	}
	var tasks []*task
	for lo := 0; lo < len(missing); lo += c.opts.ShardSize {
		hi := min(lo+c.opts.ShardSize, len(missing))
		tasks = append(tasks, &task{shard: len(tasks), indices: missing[lo:hi]})
	}
	rep.Shards = len(tasks)
	shardStats := make([]*ShardStat, len(tasks))

	// Capacity covers every send that can ever happen (initial queue plus
	// every retry), so a worker goroutine re-queueing never blocks.
	pending := make(chan *task, len(tasks)*c.opts.MaxAttempts)
	for _, t := range tasks {
		pending <- t
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	allDone := make(chan struct{})
	var (
		mu        sync.Mutex
		remaining = len(tasks)
		alive     = len(workers)
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for _, url := range workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			consecutive := 0
			for {
				var t *task
				select {
				case <-cctx.Done():
					return
				case <-allDone:
					return
				case t = <-pending:
				}
				mu.Lock()
				rep.Dispatched++
				mu.Unlock()
				label := shardLabel(t.indices)
				dispatchSpan := j.Begin("dispatch", obs.Fields{
					"shard": t.shard, "indices": label, "worker": url, "points": len(t.indices)})
				t0 := time.Now()
				resp, fatal, err := c.postShard(cctx, url, ShardRequest{
					Scenario: name,
					Spec:     spec,
					Indices:  t.indices,
					Total:    total,
					Version:  store.CodeVersion,
				})
				elapsed := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					dispatchSpan.End(obs.Fields{"error": err.Error()})
					mu.Lock()
					ws := wstats[url]
					ws.Failures++
					ws.BusyMillis += elapsed
					mu.Unlock()
					if cctx.Err() != nil {
						return
					}
					if fatal {
						fail(fmt.Errorf("worker %s: %w", url, err))
						return
					}
					// Transient failure: re-queue the shard for whoever is
					// still alive, and drop this worker once it has failed
					// workerFailLimit shards in a row.
					mu.Lock()
					rep.Retries++
					t.attempts++
					exhausted := t.attempts >= c.opts.MaxAttempts
					mu.Unlock()
					c.log.Warn("cluster: shard dispatch failed, re-queueing",
						"shard", label, "worker", url, "reason", err.Error(), "attempt", t.attempts)
					if exhausted {
						fail(fmt.Errorf("shard %v failed %d times, last on %s: %w",
							label, t.attempts, url, err))
						return
					}
					j.Event("retry", obs.Fields{
						"shard": t.shard, "indices": label, "worker": url,
						"reason": err.Error(), "attempt": t.attempts})
					pending <- t
					consecutive++
					if consecutive >= workerFailLimit {
						mu.Lock()
						rep.DroppedWorkers = append(rep.DroppedWorkers, url)
						wstats[url].Dropped = true
						alive--
						last := alive == 0
						mu.Unlock()
						c.log.Warn("cluster: worker dropped after repeated failures",
							"worker", url, "consecutive_failures", consecutive, "reason", err.Error())
						j.Event("worker_dropped", obs.Fields{"worker": url, "reason": err.Error()})
						if last {
							fail(fmt.Errorf("no surviving workers (last failure on %s: %v)", url, err))
						}
						return
					}
					continue
				}
				dispatchSpan.End(nil)
				consecutive = 0
				if len(resp.Rows) != len(t.indices) {
					fail(fmt.Errorf("worker %s: shard %v returned %d rows, want %d",
						url, label, len(resp.Rows), len(t.indices)))
					return
				}
				mergeSpan := j.Begin("merge", obs.Fields{"shard": t.shard, "worker": url})
				for k, idx := range t.indices {
					row, err := sw.DecodeRow(resp.Rows[k])
					if err != nil {
						mergeSpan.End(obs.Fields{"error": err.Error()})
						fail(fmt.Errorf("worker %s: point %d: undecodable row: %w", url, idx, err))
						return
					}
					rows[idx] = row
					if c.opts.Store != nil {
						c.opts.Store.PutRow(sw.ID, specKey, idx, resp.Rows[k])
					}
				}
				mergeSpan.End(obs.Fields{"points": len(t.indices)})
				landed(len(t.indices))
				mu.Lock()
				shardStats[t.shard] = &ShardStat{
					Shard: t.shard, Indices: label, Points: len(t.indices),
					Worker: url, Attempts: t.attempts + 1, Millis: elapsed,
				}
				ws := wstats[url]
				ws.Shards++
				ws.Points += len(t.indices)
				ws.BusyMillis += elapsed
				remaining--
				done := remaining == 0
				mu.Unlock()
				if done {
					close(allDone)
					return
				}
			}
		}(url)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, st := range shardStats {
		if st != nil {
			rep.ShardStats = append(rep.ShardStats, *st)
		}
	}
	for _, url := range c.opts.Workers {
		ws := *wstats[url]
		if ws.BusyMillis > 0 {
			ws.PointsPerSec = float64(ws.Points) / (ws.BusyMillis / 1000)
		}
		rep.WorkerStats = append(rep.WorkerStats, ws)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if remaining > 0 {
		return fmt.Errorf("%d shards undispatched with no surviving workers", remaining)
	}
	return nil
}

// postShard performs one shard request. fatal marks errors that retrying
// on another worker cannot fix: a rejected request (bad spec, unknown
// scenario, version or grid mismatch) will be rejected by every worker.
func (c *Coordinator) postShard(ctx context.Context, url string, req ShardRequest) (resp *ShardResponse, fatal bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, true, err
	}
	rctx, rcancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer rcancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost,
		strings.TrimRight(url, "/")+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := sharedClient.Do(hreq)
	if err != nil {
		return nil, false, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		err := fmt.Errorf("shard request: %s: %s", hresp.Status, strings.TrimSpace(string(msg)))
		return nil, hresp.StatusCode >= 400 && hresp.StatusCode < 500, err
	}
	var out ShardResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return nil, false, fmt.Errorf("shard response: %w", err)
	}
	return &out, false, nil
}

func shardLabel(indices []int) string {
	if len(indices) == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%d..%d:%d]", indices[0], indices[len(indices)-1], len(indices))
}
