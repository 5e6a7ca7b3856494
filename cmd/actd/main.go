// Command actd serves the ACT carbon model over HTTP. It speaks the same
// version-1 scenario JSON as cmd/act and returns identical result
// documents, plus batch evaluation, metric sweeps, Prometheus metrics and
// graceful shutdown.
//
// Usage:
//
//	actd [-addr :8080] [-workers N] [-max-batch N] [-cache-size N]
//	     [-timeout 30s] [-grace 15s] [-max-inflight N] [-max-queue N]
//	     [-retries N] [-breaker-threshold N] [-breaker-open 5s]
//	     [-fleet-shards N] [-fleet-snapshot PATH] [-fleet-wal DIR]
//	     [-fleet-wal-segment-bytes N] [-fleet-compact-interval 5m]
//	     [-export-url URL[,URL...]] [-export-interval 10s]
//	     [-export-rate BYTES/S] [-export-queue-depth N] [-export-workers N]
//	     [-script-max-steps N] [-script-max-bytes N] [-script-timeout 5s]
//	     [-cluster-peers URL[,URL...] -cluster-self URL] [-cluster-vnodes N]
//
// Endpoints:
//
//	POST   /v1/footprint          evaluate one scenario object or a batch array
//	POST   /v1/sweep              rank candidates / Pareto frontier
//	POST   /v1/script             run a sandboxed scenario program under budgets
//	POST   /v1/fleet/devices      ingest NDJSON fleet devices
//	GET    /v1/fleet/summary      fleet-wide totals (?top=K&by=region|node|class)
//	DELETE /v1/fleet/devices/{id} unregister one device
//	POST   /v1/fleet/recompute    re-price the fleet against current tables
//	GET    /v1/export/config      telemetry exporter tuning (404 without -export-url)
//	PUT    /v1/export/config      retune interval/rate under optimistic concurrency
//	GET    /healthz               liveness (always 200 while the process serves)
//	GET    /readyz                readiness (503 while draining or a breaker is open)
//	GET    /metrics               Prometheus text metrics
//
// With -fleet-snapshot/-fleet-wal the fleet registry is durable: boot
// restores the snapshot and replays the write-ahead log segments in
// -fleet-wal (quarantining corrupt ones rather than refusing to start),
// every mutation appends to a checksummed segment, segments rotate past
// -fleet-wal-segment-bytes, and every -fleet-compact-interval (and on
// graceful shutdown) the log is compacted into a fresh snapshot. If the
// disk fails (ENOSPC, fsync errors) actd degrades to read-only — /readyz
// turns 503, writes answer the `degraded` error code — and heals itself
// once the compactor's probe succeeds.
//
// With -cluster-peers (the full membership, this member included) and
// -cluster-self (this member's own base URL from that list) actd runs as
// one member of a static multi-node cluster: devices are placed across
// members by consistent hashing, ingests and deletes are routed to the
// owning member, summaries scatter-gather per-member shard aggregates and
// refold them byte-identically to a single node holding the whole fleet,
// and /v1/fleet/recompute runs a cluster-wide two-phase recompute. With a
// member unreachable, summaries answer 206 with the `partial` error code
// and the reachable members' fold. Every member must be started with the
// same -cluster-peers list and the same -fleet-shards count.
//
// With -export-url actd pushes fleet carbon telemetry (Prometheus line
// protocol, gzip) to the named collector endpoints every -export-interval,
// failing over between them in order. The exporter's own health lands in
// /metrics (act_export_* series).
//
// Overload is shed before work is accepted: beyond -max-inflight running
// requests plus -max-queue waiters, requests get 429 with Retry-After. A
// request that hits a transient fault is retried whole: -retries N means
// N attempts per request, first try included.
// SIGINT/SIGTERM start a graceful drain: new requests get 503, in-flight
// requests finish (up to -grace), the exporter emits one final tick and
// drains its queue, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"act/internal/export"
	"act/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "scenario fan-out workers per request (0 = GOMAXPROCS)")
		maxBatch   = flag.Int("max-batch", 0, "max scenarios per request (0 = default 10000)")
		cacheSize  = flag.Int("cache-size", 0, "footprint cache entries (0 = default 4096, negative disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		grace      = flag.Duration("grace", 15*time.Second, "shutdown drain deadline")
		maxInFl    = flag.Int("max-inflight", 0, "max concurrently running requests (0 = default 256, negative disables admission control)")
		maxQueue   = flag.Int("max-queue", 0, "max requests waiting for a slot (0 = default 2x max-inflight)")
		retries    = flag.Int("retries", 0, "attempts per request on transient faults, first try included (0 = default 3, 1 disables retries)")
		brkThresh  = flag.Int("breaker-threshold", 0, "consecutive 5xx before a handler's breaker opens (0 = default 5, negative disables)")
		brkOpenFor = flag.Duration("breaker-open", 0, "how long an open breaker rejects before probing (0 = default 5s)")
		flShards   = flag.Int("fleet-shards", 0, "fleet registry shard count (0 = default 64)")
		flSnapshot = flag.String("fleet-snapshot", "", "fleet snapshot path (empty = in-memory fleet)")
		flWAL      = flag.String("fleet-wal", "", "fleet write-ahead log directory (empty = in-memory fleet)")
		flSegBytes = flag.Int64("fleet-wal-segment-bytes", 0, "rotate WAL segments past this size (0 = default 4 MiB)")
		flCompact  = flag.Duration("fleet-compact-interval", 5*time.Minute, "background WAL compaction cadence (0 disables)")
		expURLs    = flag.String("export-url", "", "telemetry collector URLs, comma-separated in failover order (empty = no export)")
		expEvery   = flag.Duration("export-interval", 10*time.Second, "telemetry push interval")
		expRate    = flag.Int("export-rate", 0, "telemetry egress budget in bytes/sec (0 = unlimited)")
		expQueue   = flag.Int("export-queue-depth", 0, "pending telemetry payloads before drop-oldest (0 = default 64)")
		expWorkers = flag.Int("export-workers", 0, "telemetry delivery workers (0 = default 2)")
		scSteps    = flag.Int64("script-max-steps", 0, "evaluator steps per /v1/script program (0 = default 5000000, negative disables)")
		scBytes    = flag.Int64("script-max-bytes", 0, "allocation estimate per /v1/script program in bytes (0 = default 16 MiB, negative disables)")
		scTimeout  = flag.Duration("script-timeout", 0, "wall-clock budget per /v1/script program (0 = default 5s)")
		clPeers    = flag.String("cluster-peers", "", "comma-separated base URLs of every cluster member, this one included (empty = single-node)")
		clSelf     = flag.String("cluster-self", "", "this member's base URL as listed in -cluster-peers")
		clVnodes   = flag.Int("cluster-vnodes", 0, "consistent-hash virtual nodes per member (0 = default 512)")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:             *addr,
		Workers:          *workers,
		MaxBatch:         *maxBatch,
		CacheSize:        *cacheSize,
		RequestTimeout:   *timeout,
		MaxInFlight:      *maxInFl,
		MaxQueue:         *maxQueue,
		RetryAttempts:    *retries,
		BreakerThreshold: *brkThresh,
		BreakerOpenFor:   *brkOpenFor,
		FleetShards:      *flShards,
		ScriptMaxSteps:   *scSteps,
		ScriptMaxBytes:   *scBytes,
		ScriptTimeout:    *scTimeout,
	}
	exp := exportConfig{
		urls:       splitURLs(*expURLs),
		interval:   *expEvery,
		rate:       *expRate,
		queueDepth: *expQueue,
		workers:    *expWorkers,
	}
	durability := serve.FleetDurability{
		SnapshotPath:    *flSnapshot,
		WALDir:          *flWAL,
		SegmentBytes:    *flSegBytes,
		CompactInterval: *flCompact,
	}
	clusterCfg := serve.ClusterConfig{
		Self:   *clSelf,
		Peers:  splitURLs(*clPeers),
		Vnodes: *clVnodes,
	}
	if err := run(cfg, *grace, durability, exp, clusterCfg); err != nil {
		fmt.Fprintln(os.Stderr, "actd:", err)
		os.Exit(1)
	}
}

// exportConfig carries the -export-* flags into run.
type exportConfig struct {
	urls       []string
	interval   time.Duration
	rate       int
	queueDepth int
	workers    int
}

// splitURLs parses the comma-separated -export-url list, dropping empty
// elements so a trailing comma is harmless.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

func run(cfg serve.Config, grace time.Duration, durability serve.FleetDurability, expCfg exportConfig, clusterCfg serve.ClusterConfig) error {
	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg.Logger = log
	srv := serve.New(cfg)

	if err := srv.OpenFleet(context.Background(), durability); err != nil {
		return fmt.Errorf("fleet state: %w", err)
	}

	if len(clusterCfg.Peers) > 0 || clusterCfg.Self != "" {
		if err := srv.EnableCluster(clusterCfg); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		log.Info("cluster mode enabled",
			"self", clusterCfg.Self, "members", len(clusterCfg.Peers))
	}

	var exporter *export.Exporter
	if len(expCfg.urls) > 0 {
		var err error
		exporter, err = export.New(export.Config{
			URLs:            expCfg.urls,
			Interval:        expCfg.interval,
			RateBytesPerSec: expCfg.rate,
			QueueDepth:      expCfg.queueDepth,
			Workers:         expCfg.workers,
			Metrics:         export.NewMetrics(srv.MetricsRegistry()),
			Logger:          log,
		}, &export.FleetGenerator{Reg: srv.Fleet()})
		if err != nil {
			return fmt.Errorf("telemetry exporter: %w", err)
		}
		srv.AttachExporter(exporter)
		exporter.Start()
		log.Info("telemetry exporter started",
			"urls", expCfg.urls, "interval", expCfg.interval.String())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Info("signal received, draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		// The HTTP drain finished, so the fleet is quiescent: the
		// exporter's final tick captures its last state, then the queue
		// drains within what is left of the grace window.
		if exporter != nil {
			if err := exporter.FlushAndDrain(ctx); err != nil {
				log.Error("telemetry exporter drain", "error", err)
			}
		}
		if err := srv.CheckpointFleet(); err != nil {
			// A failed final checkpoint is not data loss — the previous
			// snapshot plus the WAL segments remain the durable truth — so
			// log it and keep shutting down.
			log.Error("fleet final checkpoint", "error", err)
		}
		if err := srv.CloseFleet(); err != nil {
			return fmt.Errorf("fleet close: %w", err)
		}
		return <-errc
	}
}
