package main

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
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve workloads drive an in-process sempe-serve over in-memory
// connections with an open loop: request i is due at i/rate seconds whether
// or not earlier ones have completed, and its latency runs from that due
// time, so a stall also charges every request queued behind it. Two client
// connections carry the load; the server keeps its default
// MaxConcurrentRuns of 2.
// Every request asks for its spec with one sweep worker and waits for the
// result. One work item is one request. On the read path one operation is
// one request; on the write path it is one request shape, whose latency is
// the median over the shape's recurrences.

const (
	clientConns = 2
	// maxGenLagMS flags a run whose load generator fell behind its schedule
	// at the tail percentile (tailQuantile of the request count): the offered
	// load was then not the one stated. It is a warning, not a failure: the
	// lag comes from the host stalling the benchmark's own goroutine, not
	// from the program under test, and latency is timed from each request's
	// due time, so the lag is charged to latency_ms either way.
	maxGenLagMS = 10
)

// sloMS is each serve workload's limit on one request's latency, about
// three times the calibration host's per-request p99 (serve-read, 1.7 ms)
// and p95 (serve-write, 215 ms) (README.md); a failed request also counts
// as a miss.
var sloMS = map[string]float64{"serve-read": 5, "serve-write": 650}

// service is an in-process sempe-serve accepting in-memory connections.
type service struct {
	http *http.Server
	ln   *pipeListener
	errc chan error
}

func startService(st *store.Store) *service {
	srv := serve.New(serve.Options{Store: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s := &service{http: &http.Server{Handler: srv.Handler()}, ln: newPipeListener(), errc: make(chan error, 1)}
	go func() { s.errc <- s.http.Serve(s.ln) }()
	return s
}

// pipeListener is a net.Listener whose connections are in-memory pipes
// dialed by the client's transport. The service thus needs no network:
// it runs where no loopback interface is up, as in a sandbox with a
// network namespace of its own.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server end of a new pipe to Accept and returns the
// client end.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	err := net.ErrClosed
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "sempe-serve" }

// stop shuts the server down and waits for its accept loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

type client struct {
	hc   *http.Client
	base string
}

// newClient returns a client whose every connection is a pipe to svc.
func newClient(svc *service) *client {
	tr := &http.Transport{DialContext: svc.ln.dial, MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: "http://" + svc.ln.Addr().String()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run posts one request and waits for its result.
func (c *client) run(q request) (int, []byte, error) {
	body, err := json.Marshal(map[string]any{"scenario": q.Scenario, "spec": q.spec(), "wait": true})
	if err != nil {
		return 0, nil, err
	}
	return c.do(http.MethodPost, "/runs", body)
}

// events fetches a run's journal.
func (c *client) events(id string) ([]obs.Event, error) {
	status, body, err := c.do(http.MethodGet, "/runs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("events: HTTP %d", status)
	}
	var v struct {
		Events []obs.Event `json:"events"`
	}
	err = json.Unmarshal(body, &v)
	return v.Events, err
}

// reply is the part of a POST /runs response the workloads check.
type reply struct {
	ID     string           `json:"id"`
	Status string           `json:"status"`
	Cached bool             `json:"cached"`
	Error  string           `json:"error"`
	Result *scenario.Result `json:"result"`
}

// decodeReply accepts only a finished run.
func decodeReply(status int, body []byte, err error) (*reply, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if r.Status != "done" || r.Result == nil {
		return nil, fmt.Errorf("run %s: status %q %s", r.ID, r.Status, r.Error)
	}
	return &r, nil
}

// stableJSON is a result's deterministic encoding: equal for equal specs
// however and wherever the result was computed.
func stableJSON(res *scenario.Result) string {
	b, err := json.Marshal(res.Stable())
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// sample is one open-loop request.
type sample struct {
	due     time.Time
	lag     time.Duration // how late the generator dispatched it
	sent    time.Time
	latency time.Duration // from due to response complete
	lane    int
	status  int
	body    []byte
	err     error
	events  []obs.Event // traced runs: the run's server-side journal
}

// openLoop sends n requests at rate per second over clientConns client
// goroutines. after, when set, runs on the client goroutine once a
// response is in, before it takes the next request. host, when set,
// collects host-speed samples while no request is in flight.
//
// The loop runs with one more P than there are CPUs: otherwise, while the
// server's simulations hold every P, the generator's timer goroutine waits
// for a preemption (about 10 ms) before it can dispatch, and the offered
// load is no longer the stated one. The client is a separate party; the
// spare P lets the OS schedule it as one.
func openLoop(c *client, n int, rate float64, reqOf func(i int) request, after func(s *sample), host *hostSpeed) ([]sample, time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	samples := make([]sample, n)
	period := time.Duration(float64(time.Second) / rate)
	due := make(chan int, n) // one slot per request: dispatch never waits for a client
	idle := &idleSampler{host: host}
	var wg sync.WaitGroup
	for lane := 1; lane <= clientConns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				s := &samples[i]
				s.lane, s.sent = lane, time.Now()
				s.status, s.body, s.err = c.run(reqOf(i))
				s.latency = time.Since(s.due)
				if after != nil {
					after(s)
				}
				idle.inflight.Add(-1)
			}
		}()
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		idle.run(stop)
	}()
	start := time.Now()
	for i := range samples {
		samples[i].due = start.Add(time.Duration(i) * period)
		idle.nextDue.Store(samples[i].due.UnixNano())
		time.Sleep(time.Until(samples[i].due))
		samples[i].lag = time.Since(samples[i].due)
		idle.inflight.Add(1)
		due <- i
	}
	close(due)
	wg.Wait()
	close(stop)
	<-stopped
	return samples, time.Since(start)
}

// idleSampler takes host-speed samples while the open loop is idle — no
// request in flight and the next one not due for a while — so a sample
// measures the host, not this process's own load on the other CPU.
type idleSampler struct {
	host     *hostSpeed
	inflight atomic.Int32
	nextDue  atomic.Int64 // Unix ns
}

func (s *idleSampler) run(stop <-chan struct{}) {
	if s.host == nil {
		return
	}
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if s.inflight.Load() == 0 && time.Until(time.Unix(0, s.nextDue.Load())) > 5*time.Millisecond {
				s.host.sample()
			}
		}
	}
}

// loopResult folds the samples into the outcome. opKey names the
// operation each request repeats; check verifies one decoded reply.
func loopResult(o *outcome, name string, samples []sample, wall time.Duration, reqOf func(i int) request,
	opKey func(i int) string, check func(i int, r *reply) error) {
	misses, completed := 0, 0
	var lagMS []float64
	for i, s := range samples {
		o.attempted++
		lat := float64(s.latency) / 1e6
		o.addOp(opKey(i), lat)
		lagMS = append(lagMS, float64(s.lag)/1e6)
		r, err := decodeReply(s.status, s.body, s.err)
		if err == nil {
			err = check(i, r)
		}
		if err != nil {
			o.opFailed("request %d (%s): %v", i, reqOf(i), err)
			misses++
			continue
		}
		completed++
		if lat > sloMS[name] {
			misses++
		}
	}
	o.wall = wall
	o.throughput = float64(completed) / wall.Seconds()
	o.results["slo_miss_ratio"] = ratio(float64(misses), float64(len(samples)))
	o.layers["gen.lag_ms_p99"] = quantile(lagMS, 0.99)
	o.layers["gen.lag_ms_max"] = maxOf(lagMS)
	q := tailQuantile(len(lagMS))
	tail := quantile(lagMS, q)
	o.notes["gen.lag_ms_tail"] = fmt.Sprintf("%.3f (p%g)", tail, 100*q)
	if tail > maxGenLagMS {
		o.notes["gen.lag_warning"] = fmt.Sprintf("lag p%g %.1f ms exceeds %d ms: the host stalled the load generator", 100*q, tail, maxGenLagMS)
	}
}

// serveTrace, in traced runs, fetches each run's journal right after its
// response and later turns the samples into spans and serve-layer numbers.
type serveTrace struct {
	c   *client
	rec *recorder
}

func (t *serveTrace) after(s *sample) {
	var r reply
	if s.err != nil || json.Unmarshal(s.body, &r) != nil || r.ID == "" {
		return
	}
	if s.events, s.err = t.c.events(r.ID); s.err != nil {
		s.err = fmt.Errorf("fetching the run's events: %w", s.err)
	}
}

// finish records, per request, a client span from its due time, the HTTP
// call, and the server's queue wait and sweep as the run's journal timed
// them (journal time 0 is placed at the send, so server spans sit inside
// the call), then derives the serve layer's numbers by outcome.
func (t *serveTrace) finish(samples []sample, out map[string]float64) {
	var lru, storeHit, compute, queue, sweep, overhead []float64
	for i, s := range samples {
		done := s.due.Add(s.latency)
		root := t.rec.add("request", "client", i, s.lane, 0, s.due, done)
		call := t.rec.add("POST /runs", "serve", i, s.lane, root, s.sent, done)
		at := func(us int64) time.Time { return s.sent.Add(time.Duration(us) * time.Microsecond) }
		var created, running int64
		sweepMS, kind := 0.0, ""
		for _, ev := range s.events {
			switch {
			case ev.Name == "created":
				created = ev.AtMicros
			case ev.Name == "cache_hit" || ev.Name == "store_hit":
				kind = ev.Name
			case ev.Name == "running":
				kind, running = "compute", ev.AtMicros
				t.rec.add("queue", "serve", i, s.lane, call, at(created), at(running))
			case ev.Name == "sweep" && ev.Phase == "end":
				sweepMS = float64(ev.DurUS) / 1e3
				t.rec.add("scenario.Run", "scenario", i, s.lane, call, at(ev.AtMicros-ev.DurUS), at(ev.AtMicros))
			}
		}
		lat := float64(s.latency) / 1e6
		switch kind {
		case "cache_hit":
			lru = append(lru, lat)
		case "store_hit":
			storeHit = append(storeHit, lat)
		case "compute":
			compute = append(compute, lat)
			queue = append(queue, float64(running-created)/1e3)
			sweep = append(sweep, sweepMS)
		}
		overhead = append(overhead, lat-sweepMS)
	}
	out["serve.requests"] = float64(len(samples))
	out["serve.lru_hits"] = float64(len(lru))
	out["serve.store_hits"] = float64(len(storeHit))
	out["serve.computes"] = float64(len(compute))
	out["serve.lru_hit_ms_p50"] = median(lru)
	out["serve.store_hit_ms_p50"] = median(storeHit)
	out["serve.store_hit_ms_p99"] = quantile(storeHit, 0.99)
	out["serve.compute_ms_p50"] = median(compute)
	out["serve.compute_ms_p95"] = quantile(compute, 0.95)
	out["serve.queue_wait_ms_p50"] = median(queue)
	out["serve.queue_wait_ms_p95"] = quantile(queue, 0.95)
	out["serve.sweep_ms_p50"] = median(sweep)
	out["serve.handler_overhead_ms_p50"] = median(overhead)
}

// storeLayers sets the store's traffic counters over the measured phase.
func storeLayers(c0, c1 store.Counters, out map[string]float64) {
	out["store.hits"] = float64(c1.Hits - c0.Hits)
	out["store.misses"] = float64(c1.Misses - c0.Misses)
	out["store.gets"] = out["store.hits"] + out["store.misses"]
	out["store.puts"] = float64(c1.Puts - c0.Puts)
	out["store.corrupt"] = float64(c1.Corrupt - c0.Corrupt)
}

// timed returns fn's duration in ms.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return msSince(t, time.Now())
}

// fillStore computes every spec through a server on st and returns each
// result's stable JSON.
func fillStore(st *store.Store, specs []request) ([]string, error) {
	svc := startService(st)
	c := newClient(svc)
	want := make([]string, len(specs))
	for i, q := range specs {
		r, err := decodeReply(c.run(q))
		if err == nil && r.Cached {
			err = errors.New("answered from cache")
		}
		if err != nil {
			c.close()
			svc.stop()
			return nil, fmt.Errorf("computing %s: %w", q, err)
		}
		want[i] = stableJSON(r.Result)
	}
	c.close()
	return want, svc.stop()
}

// runServeRead: set-up computes 128 distinct cheap specs into an on-disk
// store, then starts a fresh server on that store, so its LRU (64 entries)
// starts empty. The measured phase asks for specs at 100 requests/s under a
// Zipf(1.1) law: LRU hits and store reads, never a simulation.
func runServeRead(e *env) (*outcome, error) {
	nSpecs, rate := 128, 100.0
	if e.tiny {
		nSpecs, rate = 6, 40
	}
	specs := drawSpecs(e.seed, "serve-read/specs", readFamilies, nSpecs)
	dir, err := e.tempDir("serve-read")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	want, err := fillStore(st, specs)
	if err != nil {
		return nil, err
	}
	svc := startService(st)
	defer svc.stop()
	n := int(rate * e.seconds)
	sched := zipfSchedule(e.seed, n, nSpecs)
	reqOf := func(i int) request { return specs[sched[i]] }
	if err := e.ready(); err != nil {
		return nil, err
	}

	c := newClient(svc)
	defer c.close()
	var tr *serveTrace
	var after func(*sample)
	if e.trace {
		tr = &serveTrace{c: c, rec: newRecorder()}
		after = tr.after
	}
	o := newOutcome()
	gs := startGoStats()
	c0 := st.Counters()
	samples, wall := openLoop(c, n, rate, reqOf, after, nil)
	gs.stop(o.layers)
	storeLayers(c0, st.Counters(), o.layers)
	loopResult(o, "serve-read", samples, wall, reqOf, strconv.Itoa, func(i int, r *reply) error {
		if !r.Cached {
			return fmt.Errorf("computed instead of answered from cache")
		}
		if got := stableJSON(r.Result); got != want[sched[i]] {
			return fmt.Errorf("result differs from the one recorded at set-up")
		}
		return nil
	})
	// Not scaled to reference host speed: a read is file I/O and encoding,
	// which the host's slowdowns of simulation leave alone (hostspeed.go).
	o.latencyMS = median(o.opLatencies())
	if tr != nil {
		tr.finish(samples, o.layers)
		var getMS []float64
		for i := range samples {
			q := reqOf(i)
			var hit bool
			getMS = append(getMS, timed(func() { _, hit = st.GetResult(q.Scenario, q.spec()) }))
			if !hit {
				o.wrong("store lost the result of %s", q)
			}
		}
		o.layers["store.get_ms_p50"] = median(getMS)
		o.layers["store.get_ms_p99"] = quantile(getMS, 0.99)
		o.spans = tr.rec.snapshot()
	}
	return o, nil
}

// runServeWrite: a fresh server on an empty store. The measured phase asks
// at 14 requests/s for specs never seen before, drawn from five scenario
// families, so every request queues for a simulation slot, computes, and
// writes its result to the store.
func runServeWrite(e *env) (*outcome, error) {
	rate := 14.0
	if e.tiny {
		rate = 6
	}
	n := int(rate * e.seconds)
	specs := drawSpecs(e.seed, "serve-write/specs", writeFamilies, n)
	reqOf := func(i int) request { return specs[i] }
	dir, err := e.tempDir("serve-write")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc := startService(st)
	defer svc.stop()
	if err := e.ready(); err != nil {
		return nil, err
	}

	c := newClient(svc)
	defer c.close()
	var tr *serveTrace
	var after func(*sample)
	if e.trace {
		tr = &serveTrace{c: c, rec: newRecorder()}
		after = tr.after
	}
	o := newOutcome()
	var host *hostSpeed
	if !e.trace {
		host = &o.host
	}
	gs := startGoStats()
	c0, e0 := st.Counters(), snapCounters()
	samples, wall := openLoop(c, n, rate, reqOf, after, host)
	gs.stop(o.layers)
	c1 := st.Counters()
	storeLayers(c0, c1, o.layers)
	e0.deltaInto(o.layers)
	results := make([]*scenario.Result, n)
	shape := func(i int) string { return specs[i].Shape }
	loopResult(o, "serve-write", samples, wall, reqOf, shape, func(i int, r *reply) error {
		if r.Cached {
			return fmt.Errorf("answered from cache, but the spec is new")
		}
		results[i] = r.Result
		return nil
	})
	o.setLatency(o.typicalMS())
	if puts := c1.Puts - c0.Puts; puts != int64(n) {
		o.wrong("store took %d puts for %d requests", puts, n)
	}
	checkSampledResults(e, specs, results, o)
	if tr != nil {
		tr.finish(samples, o.layers)
		var putMS []float64
		for _, res := range results {
			if res != nil {
				var err error
				putMS = append(putMS, timed(func() { err = st.PutResult(res) }))
				if err != nil {
					o.wrong("rewriting a result: %v", err)
				}
			}
		}
		o.layers["store.put_ms_p50"] = median(putMS)
		o.layers["store.put_ms_p99"] = quantile(putMS, 0.99)
		o.spans = tr.rec.snapshot()
	}
	return o, nil
}

// checkSampledResults recomputes five seeded requests' specs in-process and
// checks the server's answers against them.
func checkSampledResults(e *env, specs []request, results []*scenario.Result, o *outcome) {
	r := rngFor(e.seed, "serve-write/check")
	for n := 0; n < 5 && len(specs) > 0; n++ {
		i := r.Intn(len(specs))
		if results[i] == nil {
			continue // already counted as a failed request
		}
		q := specs[i]
		sc, ok := scenario.Lookup(q.Scenario)
		if !ok {
			o.wrong("check %s: scenario not registered", q)
			continue
		}
		want, err := scenario.Run(sc, q.spec(), scenario.RunOptions{})
		if err != nil {
			o.wrong("check %s: %v", q, err)
		} else if stableJSON(want) != stableJSON(results[i]) {
			o.wrong("check %s: server result differs from an in-process run", q)
		}
	}
}
