// Command hive runs the central APISENSE Hive service: device registry,
// task publication and dataset ingestion, exposed over HTTP/JSON.
//
// Durable state lives in the store directory named by -journal: a log
// that rotates at -segment-mb and folds into a snapshot every
// -snapshot-every sealed segments, so restart cost stays bounded by the
// tail, and that commits uploads for different tasks on -store-shards
// independent fsync boundaries, so hot tasks need not serialise on one
// descriptor. A single-file journal of earlier releases is adopted with
// `mkdir d && mv hive.journal d/seg-00000000.log`.
//
// Ingestion is streamed through a bounded queue: uploads (single or
// batched via POST /api/uploads/batch) are admitted by a pool of drain
// workers and journaled with group commits — one fsync per drained batch
// per shard. A full queue answers 429 with a Retry-After hint instead of
// accepting unbounded work. SIGINT/SIGTERM shuts down gracefully: the
// HTTP server stops taking requests, the queue drains, and the store is
// synced and closed, so no acknowledged upload is lost.
//
// With -metrics the server exposes GET /metrics in Prometheus text
// format: queue depth and drain latency, store fsyncs (total and
// per-shard), segment count, snapshot age, replay cost, per-task upload
// counters, per-route HTTP request/latency/error-code series, Go runtime
// gauges and build info — the full catalogue is in docs/OPERATIONS.md.
//
// With -traces the server records end-to-end request traces (device
// flush → HTTP route → ingest enqueue → group commit → store append) in
// a bounded in-memory store, served at GET /debug/traces; -log-requests
// adds one structured JSON log line per request, trace-correlated via
// trace_id/span_id. Liveness and readiness live at GET /healthz and
// GET /readyz. -debug-addr exposes net/http/pprof on a separate,
// loopback-only listener that never shares the public mux.
//
// Usage:
//
//	hive [-addr :8080] [-journal hive.store]
//	     [-segment-mb 4] [-snapshot-every 4] [-store-shards 1] [-sync-every 1]
//	     [-queue 256] [-batch 256] [-drain-workers 1] [-metrics]
//	     [-traces 512] [-log-requests info] [-debug-addr 127.0.0.1:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/obs"
	"apisense/internal/otrace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hive:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hive", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	journal := fs.String("journal", "", "store directory for durable state (empty = in-memory only)")
	segmentMB := fs.Int("segment-mb", 4, "rotate a store tail after this many MiB (raise to fold less often on write-heavy fleets)")
	snapshotEvery := fs.Int("snapshot-every", 4, "fold a snapshot after this many sealed segments")
	storeShards := fs.Int("store-shards", 1, "number of independent per-task commit shards (may change between restarts)")
	syncEvery := fs.Int("sync-every", 1, "fsync each store shard every N group commits (0 = never, leave it to the OS)")
	queueSize := fs.Int("queue", 256, "ingest queue capacity in batch slots (0 = synchronous ingestion, no backpressure)")
	maxBatch := fs.Int("batch", 256, "max uploads coalesced into one group commit")
	drainWorkers := fs.Int("drain-workers", 1, "ingest drain worker pool size (with -store-shards > 1, more workers let distinct task shards commit in parallel)")
	grace := fs.Duration("grace", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	metrics := fs.Bool("metrics", false, "expose Prometheus text metrics at GET /metrics")
	traces := fs.Int("traces", 512, "bound of the in-memory trace store served at GET /debug/traces (0 = tracing off)")
	logRequests := fs.String("log-requests", "", "emit one structured JSON log line per request at this minimum level (debug, info, warn or error; empty = off)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off; never expose publicly)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		obs.RegisterRuntime(reg)
		obs.RegisterBuildInfo(reg)
	}

	var tracer *otrace.Tracer
	if *traces > 0 {
		tracer = otrace.New(otrace.Config{Store: otrace.NewSpanStore(*traces)})
	}

	var (
		h  *hive.Hive
		st store.Store
	)
	if *journal != "" {
		s, err := store.OpenSegmented(*journal, store.SegmentedConfig{
			SegmentBytes:  int64(*segmentMB) << 20,
			SnapshotEvery: *snapshotEvery,
			Shards:        *storeShards,
		})
		if err != nil {
			return err
		}
		h, err = hive.RecoverFrom(s)
		if err != nil {
			return err
		}
		st = s
		st.SetSyncEvery(*syncEvery)
		ss := s.Stats()
		log.Printf("recovered state from %s (%d shards): %+v; replayed %d records in %s",
			*journal, ss.Shards, h.Stats(), ss.ReplayRecords, ss.ReplayDuration)
	} else {
		h = hive.New()
	}

	var opts []hive.ServerOption
	var q *ingest.Queue
	if *queueSize > 0 {
		q = ingest.New(h, ingest.Config{
			Capacity: *queueSize,
			MaxBatch: *maxBatch,
			Workers:  *drainWorkers,
			Tracer:   tracer, // nil = disabled
		})
		opts = append(opts, hive.WithIngestQueue(q))
		log.Printf("ingest queue: %d batch slots, %d drain workers, group commits of <= %d uploads",
			*queueSize, *drainWorkers, *maxBatch)
	}
	if reg != nil {
		// NewServer binds the store series (the store is already
		// attached to h here) and the queue series onto this registry.
		opts = append(opts, hive.WithMetrics(hive.NewMetrics(reg)))
		log.Printf("metrics: serving Prometheus text format at GET /metrics")
	}
	if tracer != nil {
		opts = append(opts, hive.WithTracer(tracer))
		log.Printf("tracing: %d most recent traces at GET /debug/traces", *traces)
	}
	if *logRequests != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logRequests)); err != nil {
			return fmt.Errorf("bad -log-requests level %q: %w", *logRequests, err)
		}
		logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
		opts = append(opts, hive.WithLogger(logger))
	}

	hs := hive.NewServer(h, opts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hs,
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *debugAddr != "" {
		// pprof gets its own mux on its own listener: the profiling surface
		// must never ride on the public API address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("pprof debug server on %s (keep it loopback-only)", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof debug server: %v", err)
			}
		}()
		defer dsrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("hive listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// The listener died on its own; still drain what was accepted.
		if perr := shutdownPipeline(q, st); perr != nil {
			log.Printf("shutdown after listener failure: %v", perr)
		}
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop taking requests (waiting out in-flight ones
	// up to the grace deadline), then drain the ingest queue and close the
	// store — acknowledged uploads are on disk before we exit. Releasing
	// the signal handler first restores default delivery, so a second
	// SIGINT/SIGTERM during a hung drain kills the process instead of
	// being swallowed.
	stop()
	hs.SetDraining(true) // flip /readyz before the listener stops accepting
	log.Printf("shutting down (grace %s; press again to force quit)...", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutdownErr := srv.Shutdown(shCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		log.Printf("grace deadline hit; closing remaining connections")
		shutdownErr = nil
		_ = srv.Close()
	}
	if err := shutdownPipeline(q, st); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shutdown complete: %+v", h.Stats())
	return shutdownErr
}

// shutdownPipeline drains the ingest queue (committing every batch already
// accepted into it) and then syncs and closes the store.
func shutdownPipeline(q *ingest.Queue, st store.Store) error {
	if q != nil {
		q.Close()
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}
