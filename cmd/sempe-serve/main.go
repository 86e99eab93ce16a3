// Command sempe-serve exposes the scenario registry as an HTTP evaluation
// service: list scenarios, start parameterized sweeps with bounded
// concurrency, poll progress, cancel in-flight runs, and fetch structured
// results. Completed results are cached in-memory (an LRU of 64 runs,
// keyed by scenario + spec); with -store they are also persisted on disk,
// so a restarted server answers warm. A -store directory can safely be
// shared with sempe-bench -store, but neither reuses the other's entries:
// this server reads and writes only whole results, sempe-bench only
// per-point rows, so a store warmed by sempe-bench does not warm this
// server.
//
//	sempe-serve -addr :8080 -store results/
//
//	curl localhost:8080/scenarios
//	curl -X POST localhost:8080/runs -d '{"scenario":"fig10a","spec":{"quick":true},"wait":true}'
//	curl -X POST localhost:8080/runs -d '{"scenario":"leakmatrix"}'   # 202 + poll
//	curl localhost:8080/runs/run-2
//	curl localhost:8080/runs/run-2/events     # span journal for the run
//	curl -X POST localhost:8080/runs/run-2/cancel
//	curl localhost:8080/metrics               # Prometheus text exposition
//
// Observability: GET /metrics always serves the Prometheus text exposition
// (HTTP latency/status, run lifecycle, cache/store effectiveness, semaphore
// occupancy, simulator counters); -pprof additionally mounts
// net/http/pprof under /debug/pprof/. Logs go to stderr via log/slog at
// -log-level (failed runs are logged at warn).
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes, and
// in-flight HTTP requests get -shutdown-grace to finish before the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("max-workers", 0, "cap on per-run worker goroutines (0 = all CPUs)")
		runs     = flag.Int("max-runs", 2, "sweeps simulating concurrently; further runs queue")
		storeDir = flag.String("store", "", "persistent result-store directory (empty = in-memory cache only)")
		pprofF   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		grace    = flag.Duration("shutdown-grace", 15*time.Second, "how long in-flight requests get to finish on SIGINT/SIGTERM")
	)
	flag.Parse()

	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sempe-serve: %v\n", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)
	log := logger.With("cmd", "sempe-serve")

	opts := serve.Options{
		MaxWorkers:        *workers,
		MaxConcurrentRuns: *runs,
		EnablePprof:       *pprofF,
		Logger:            log,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		opts.Store = st
		log.Info("result store open", "dir", st.Dir(), "code_version", store.CodeVersion)
	}
	srv := serve.New(opts)

	log.Info("listening", "addr", *addr,
		"scenarios", len(scenario.Names()), "pprof", *pprofF)
	for _, name := range scenario.Names() {
		fmt.Printf("  %s\n", name)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills immediately via the default handler
		log.Info("shutting down", "grace", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		log.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	log.Info("stopped")
}

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", s)
}
