// Command fdbd serves compiled relational specifications over HTTP — the
// daemon face of the paper's claim that a finite specification keeps
// answering queries about the infinite fixpoint after the rules are
// forgotten. It hosts a hot-reloadable catalog of named databases (package
// registry) behind a JSON API (package server).
//
// Usage:
//
//	fdbd [-addr HOST:PORT] [-preload DIR] [-data DIR] [-fsync POLICY]
//	     [-snapshot-every N] [-cache N] [-timeout D] [-max-body N]
//	fdbd -replica-of URL -data DIR [-ready-max-lag N] [flags]
//
// Flags:
//
//	-addr            listen address (default 127.0.0.1:8344)
//	-preload         directory of *.fdb programs and *.json spec documents
//	                 to load at startup, named after the file without
//	                 extension
//	-data            durable data directory: every catalog mutation is
//	                 journaled to a write-ahead log and the catalog is
//	                 recovered from the latest snapshot plus the log tail
//	                 at boot (empty disables durability)
//	-fsync           WAL sync policy: always, interval or never
//	-snapshot-every  write a snapshot after N journaled mutations
//	                 (0 only snapshots on graceful shutdown)
//	-cache           answer-cache capacity in entries; negative disables
//	-timeout         per-request deadline (e.g. 5s); negative disables it
//	-max-body        largest accepted request body in bytes
//	-replica-of      primary base URL: run as a read replica that bootstraps
//	                 from the primary's snapshot and follows its WAL stream;
//	                 requires -data, rejects writes with 403
//	-ready-max-lag   largest record lag at which a replica's /readyz still
//	                 reports ready
//	-log-level       minimum level for structured logs: debug, info, warn
//	                 or error (default info)
//	-log-format      structured-log encoding: text or json
//	-slow-query      log a warning (with trace id, when tracing) for any
//	                 query evaluated slower than this; 0 disables
//	-debug-addr      optional second listener exposing /debug/pprof/*;
//	                 keep it on localhost or a private interface
//	-admission-config
//	                 per-tenant admission policy file (JSON: token-bucket
//	                 rate/burst, watch caps, per-query work budgets keyed
//	                 by X-Api-Key), hot-reloaded on change
//	-admission-rate / -admission-burst
//	                 default token-bucket refill rate (cost units/s) and
//	                 burst for tenants absent from the policy file
//	-admission-concurrency / -admission-queue / -admission-queue-timeout
//	                 evaluation slots, bounded waiting room and longest
//	                 queue wait; arrivals beyond them are shed with
//	                 429 rate_limited / 503 overloaded + Retry-After
//	-max-qsteps / -max-derivation-depth / -max-arena-bytes
//	                 default per-query work budget of every read (Algorithm
//	                 Q steps, derivation depth, metered answer-arena
//	                 bytes), the compile a first read pays included; over
//	                 it: 422 depth_budget_exceeded for the depth,
//	                 budget_exceeded for the rest. Like any admission flag,
//	                 each turns admission on at its defaults. A policy file
//	                 cannot drop them: a work limit a tenant's entry leaves
//	                 zero is the flag's
//	-trace-buffer    flight-recorder capacity in entries (0: default 1024;
//	                 negative disables the recorder and always-on tracing)
//	-trace-sample    keep 1 in N unremarkable requests in the recorder
//	-stats-topk      distinct query fingerprints tracked per process in
//	                 /stats and funcdbd_query_* metrics (overflow folds
//	                 into "other")
//
// A durable primary serves its snapshot and WAL stream on /v1/repl/* for
// replicas to consume. Routers reach the daemon on the same listener over
// the hop: GET /v1/hop with Upgrade: funcdb-hop turns a connection into a
// stream of request and response records (package api), each request
// served by the same handler as plain HTTP. The daemon shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests, hop
// connections included, and (with -data) writing a final snapshot. Query
// it with fdbq -remote, or curl:
//
//	curl -X PUT  localhost:8344/v1/db/even --data 'Even(0). Even(T) -> Even(T+2).'
//	curl -X POST localhost:8344/v1/db/even/ask -d '{"query":"?- Even(4)."}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/registry"
	"funcdb/internal/replica"
	"funcdb/internal/server"
	"funcdb/internal/store"
	"funcdb/internal/watch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdbd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address")
	preload := fs.String("preload", "", "directory of *.fdb / *.json artifacts to load at startup")
	dataDir := fs.String("data", "", "durable data directory (WAL + snapshots); empty disables durability")
	fsync := fs.String("fsync", store.FsyncAlways, "WAL sync policy: always, interval or never")
	snapEvery := fs.Int("snapshot-every", 0, "snapshot after N journaled mutations (0: only on shutdown)")
	cacheSize := fs.Int("cache", server.DefaultCacheSize, "answer-cache capacity (entries); negative disables")
	timeout := fs.Duration("timeout", server.DefaultTimeout, "per-request deadline; negative disables")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "largest accepted request body (bytes)")
	batchMax := fs.Int("batch-max", server.DefaultMaxBatchQueries, "largest accepted /batch query count")
	batchWorkers := fs.Int("batch-workers", server.DefaultBatchWorkers, "worker pool size per /batch request")
	replicaOf := fs.String("replica-of", "", "primary base URL: run as a read replica of that daemon")
	readyMaxLag := fs.Uint64("ready-max-lag", replica.DefaultReadyMaxLag, "largest record lag at which a replica reports ready")
	logLevel := fs.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured-log encoding: text or json")
	slowQuery := fs.Duration("slow-query", 0, "log queries evaluated slower than this (0 disables)")
	maxDerivation := fs.Int64("max-derivation-depth", 0, "largest derivation depth one query may explore (0: unlimited)")
	debugAddr := fs.String("debug-addr", "", "optional listener for /debug/pprof/* (empty disables)")
	admConfig := fs.String("admission-config", "", "per-tenant admission policy file (JSON), hot-reloaded; empty disables per-tenant limits")
	admRate := fs.Float64("admission-rate", 0, "default token refill rate (cost units/s) for tenants absent from the policy file (0: unlimited)")
	admBurst := fs.Float64("admission-burst", 0, "default token-bucket burst for tenants absent from the policy file")
	admConc := fs.Int("admission-concurrency", 0, "admitted requests evaluating simultaneously (0: 4×GOMAXPROCS)")
	admQueue := fs.Int("admission-queue", 0, "bounded admission waiting room; arrivals beyond it are shed with 503 (0: 4×concurrency)")
	admWait := fs.Duration("admission-queue-timeout", 0, "longest a queued request waits for a slot before a 503 shed (0: 1s)")
	maxQSteps := fs.Int64("max-qsteps", 0, "largest Algorithm Q step count one query may spend (0: unlimited)")
	maxArena := fs.Int64("max-arena-bytes", 0, "largest metered answer-arena footprint one query may build (0: unlimited)")
	traceBuffer := fs.Int("trace-buffer", 0, "flight-recorder capacity in entries (0: default; negative disables)")
	traceSample := fs.Int("trace-sample", 0, "keep 1 in N unremarkable requests in the flight recorder (0: default)")
	statsTopK := fs.Int("stats-topk", 0, "distinct query fingerprints tracked in /stats and metrics (0: default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	// Packages that log outside a request (store recovery, replication)
	// default to the process-wide logger; make it this one.
	slog.SetDefault(logger)
	if *replicaOf != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replica-of needs -data: the replica journals the primary's records locally")
		}
		if *preload != "" {
			return fmt.Errorf("-replica-of and -preload are mutually exclusive: a replica's catalog is the primary's")
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dc := daemonConfig{
		server: server.Config{CacheSize: *cacheSize, Timeout: *timeout, MaxBodyBytes: *maxBody,
			MaxBatchQueries: *batchMax, BatchWorkers: *batchWorkers,
			Logger: logger, SlowQuery: *slowQuery,
			TraceBuffer: *traceBuffer, TraceSample: *traceSample, StatsTopK: *statsTopK},
		store:       store.Options{Dir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapEvery},
		preload:     *preload,
		replicaOf:   strings.TrimSuffix(*replicaOf, "/"),
		readyMaxLag: *readyMaxLag,
		debugAddr:   *debugAddr,
	}
	// Any admission or work-budget flag turns the admission front door on;
	// the policy file (hot-reloaded) refines per-tenant limits on top of the
	// flag-set defaults, and the controller keeps the flags' work limits
	// for any tenant whose entry leaves them zero.
	if *admConfig != "" || *admRate > 0 || *admBurst > 0 || *admConc > 0 || *admQueue > 0 ||
		*maxQSteps > 0 || *maxDerivation > 0 || *maxArena > 0 {
		dc.admission = &admission.Options{
			Concurrency:  *admConc,
			QueueDepth:   *admQueue,
			QueueTimeout: *admWait,
			Config: admission.Config{Default: admission.Limits{
				Rate: *admRate, Burst: *admBurst,
				MaxQSteps: *maxQSteps, MaxDepth: *maxDerivation, MaxArenaBytes: *maxArena,
			}},
		}
		dc.admissionPath = *admConfig
	}
	return serve(ctx, ln, dc, out)
}

// debugHandler mounts the pprof endpoints on a private mux, so the main
// listener never exposes them.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// daemonConfig is everything serve needs beyond its listener: the HTTP
// server configuration, the durable store options, and the startup mode
// (preload a directory, or follow a primary as a replica).
type daemonConfig struct {
	server      server.Config
	store       store.Options
	preload     string
	replicaOf   string
	readyMaxLag uint64
	debugAddr   string
	// admission, when set, enables the multi-tenant admission front door;
	// admissionPath optionally names the hot-reloaded per-tenant policy
	// file layered on top of the option defaults.
	admission     *admission.Options
	admissionPath string
}

// serve runs the daemon on ln until ctx is cancelled, then drains in-flight
// requests. With a data directory set it recovers the catalog before
// listening and checkpoints it after draining; as a replica it instead
// starts the replication loop and serves read-only. The listener is always
// closed on return.
func serve(ctx context.Context, ln net.Listener, dc daemonConfig, out io.Writer) error {
	reg := registry.New(core.Options{})
	cfg := dc.server
	// One flight recorder per process, shared between the HTTP server and
	// (on a replica) the replication loop, so request traces and stream
	// episodes land in the same rings.
	if cfg.Recorder == nil && cfg.TraceBuffer >= 0 {
		cfg.Recorder = obs.NewRecorder(cfg.TraceBuffer, cfg.SlowQuery, cfg.TraceSample)
	}
	var st *store.Store
	var rep *replica.Replica
	if dc.replicaOf != "" {
		var err error
		rep, err = replica.Start(reg, replica.Options{
			Primary:     dc.replicaOf,
			Store:       dc.store,
			ReadyMaxLag: dc.readyMaxLag,
			Recorder:    cfg.Recorder,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return err
		}
		cfg.ReadOnly = true
		cfg.Ready = rep.Ready
		cfg.ExtraGauges = rep.Gauges
		fmt.Fprintf(out, "fdbd: replicating from %s into %s\n", dc.replicaOf, dc.store.Dir)
	} else if dc.store.Dir != "" {
		var err error
		st, err = store.Open(dc.store)
		if err != nil {
			ln.Close()
			return err
		}
		stats, err := st.Recover(reg)
		if err != nil {
			ln.Close()
			return fmt.Errorf("recover %s: %w", dc.store.Dir, err)
		}
		fmt.Fprintf(out, "fdbd: recovered %d database(s) from %s (snapshot lsn %d, %d replayed, %d warning(s)) in %s\n",
			reg.Len(), dc.store.Dir, stats.SnapshotLSN, stats.Replayed, stats.Warnings, stats.Duration.Round(time.Microsecond))
		cfg.ExtraGauges = st.Gauges
		// A durable primary serves its snapshot and WAL to replicas.
		cfg.Repl = st
	}
	if dc.preload != "" {
		n, err := reg.LoadDir(dc.preload)
		if err != nil {
			ln.Close()
			if rep != nil {
				rep.Close()
			}
			return fmt.Errorf("preload %s: %w", dc.preload, err)
		}
		fmt.Fprintf(out, "fdbd: preloaded %d database(s) from %s\n", n, dc.preload)
	}
	// The watch hub tails the registry's version bumps; its frames carry
	// the journal position of whichever log this node applies from — its
	// own WAL on a primary, the primary's on a replica.
	var lsnFn func() uint64
	switch {
	case rep != nil:
		lsnFn = rep.JournalLSN
	case st != nil:
		lsnFn = st.LastLSN
	}
	var ctl *admission.Controller
	if dc.admission != nil {
		ctl = admission.New(*dc.admission)
		defer ctl.Close()
		if dc.admissionPath != "" {
			if err := ctl.WatchFile(dc.admissionPath, time.Second); err != nil {
				ln.Close()
				if rep != nil {
					rep.Close()
				}
				return fmt.Errorf("admission config: %w", err)
			}
			fmt.Fprintf(out, "fdbd: admission policy from %s (hot-reloaded)\n", dc.admissionPath)
		}
		cfg.Admission = ctl
	}
	hopts := watch.Options{Reg: reg, LSN: lsnFn}
	if ctl != nil {
		hopts.TenantCap = ctl.WatchCap
		hopts.Budget = ctl.Budget
	}
	hub := watch.NewHub(hopts)
	reg.SetNotifier(hub.Notify)
	cfg.Watch = hub
	sv := server.New(reg, cfg)
	srv := &http.Server{
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	var dbg *http.Server
	if dc.debugAddr != "" {
		dln, err := net.Listen("tcp", dc.debugAddr)
		if err != nil {
			ln.Close()
			if rep != nil {
				rep.Close()
			}
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg = &http.Server{Handler: debugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dbg.Serve(dln) }()
		fmt.Fprintf(out, "fdbd: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}
	fmt.Fprintf(out, "fdbd: listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if rep != nil {
			rep.Close()
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "fdbd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if dbg != nil {
		_ = dbg.Shutdown(shutdownCtx)
	}
	// End live-query streams first: their handlers write an end frame and
	// return, so the graceful drain below is not held open by watchers.
	hub.Close()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Routers' hop connections were hijacked out of srv's sight: close the
	// idle ones and let in-flight requests finish before the store closes.
	if err := sv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if rep != nil {
		// Close stops the apply loop and closes the replica's store; the
		// journal is already durable, so a restart resumes from here.
		if err := rep.Close(); err != nil {
			return err
		}
		fmt.Fprintln(out, "fdbd: replication stopped")
	}
	if st != nil {
		// In-flight mutations have drained; checkpoint so the next boot
		// starts from a snapshot instead of a full log replay.
		if err := st.Snapshot(); err != nil {
			return fmt.Errorf("shutdown snapshot: %w", err)
		}
		fmt.Fprintln(out, "fdbd: snapshot written")
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}
